package engine

import (
	"encoding/binary"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func countReference(items []int, key func(int) int) map[int]int {
	out := map[int]int{}
	for _, it := range items {
		out[key(it)]++
	}
	return out
}

func TestReduceByKeyAggregates(t *testing.T) {
	ctx := NewContext(4)
	items := intRange(1000)
	key := func(x int) int { return x % 37 }
	d := Parallelize(ctx, items, 8)
	pairs, err := ReduceByKey("rbk", d, 8, key,
		func(int) int { return 1 },
		func(a, b int) int { return a + b },
		KeyedIntCodec{})
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := Collect("c", pairs)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]int{}
	for _, kv := range kvs {
		got[kv.Key] += kv.Val
	}
	if !reflect.DeepEqual(got, countReference(items, key)) {
		t.Fatalf("ReduceByKey counts differ: %v", got)
	}
	// Each output partition must hold its keys sorted and disjoint.
	seen := map[int]bool{}
	for p := 0; p < pairs.NumPartitions(); p++ {
		part, err := pairs.partition(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sort.SliceIsSorted(part, func(i, j int) bool { return part[i].Key < part[j].Key }) {
			t.Fatalf("partition %d keys not sorted", p)
		}
		for _, kv := range part {
			if seen[kv.Key] {
				t.Fatalf("key %d appears in two partitions", kv.Key)
			}
			seen[kv.Key] = true
		}
	}
}

// TestCombineByKeyMatchesNoCombine: map-side combine is invisible in the
// output — every reduce partition equals the plain-Go oracle that ships one
// value per item and folds them on the reduce side.
func TestCombineByKeyMatchesNoCombine(t *testing.T) {
	items := intRange(600)
	key := func(x int) int { return x % 21 }
	create := func(int) int { return 1 }
	merge := func(a, b int) int { return a + b }
	ctx := NewContext(3)
	d := Parallelize(ctx, items, 5)
	pairs, err := CombineByKey("cbk", d, 4, key, create,
		func(c, _ int) int { return c + 1 }, merge, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := pairs.Force(); err != nil {
		t.Fatal(err)
	}
	want := uncombinedByKey(d.parts, 4, key, create, merge)
	for r := range want {
		got, err := pairs.partition(r, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[r]) {
			t.Fatalf("partition %d: combined %v, uncombined oracle %v", r, got, want[r])
		}
	}
}

// TestCountByKeyCombineShipsFewerBytes is the byte-accounting claim behind
// the census: the map-side-combined CountByKey must record strictly fewer
// shuffle-write bytes than the same census without combine — one
// (key, 1) pair per item routed by key through the same codec — while
// producing identical counts.
func TestCountByKeyCombineShipsFewerBytes(t *testing.T) {
	items := intRange(4000)
	key := func(x int) int { return x % 8 }
	shuffleBytes := func(ctx *Context) int64 {
		var wr int64
		for _, s := range ctx.Metrics().Stages {
			wr += s.ShuffleWriteBytes()
		}
		return wr
	}

	ctx := NewContext(4)
	combined, err := CountByKey("census", Parallelize(ctx, items, 8), key)
	if err != nil {
		t.Fatal(err)
	}
	combinedBytes := shuffleBytes(ctx)

	ctx = NewContext(4)
	ones, err := Map("ones", Parallelize(ctx, items, 8), Serializer[Keyed[int]](KeyedIntCodec{}),
		func(x int) Keyed[int] { return Keyed[int]{Key: key(x), Val: 1} })
	if err != nil {
		t.Fatal(err)
	}
	routed, err := PartitionBy("census", ones, 8, func(kv Keyed[int]) int { return kv.Key })
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := Collect("collect", routed)
	if err != nil {
		t.Fatal(err)
	}
	uncombined := map[int]int{}
	for _, kv := range kvs {
		uncombined[kv.Key] += kv.Val
	}
	uncombinedBytes := shuffleBytes(ctx)

	if !reflect.DeepEqual(combined, uncombined) {
		t.Fatalf("counts differ: %v vs %v", combined, uncombined)
	}
	if !reflect.DeepEqual(combined, countReference(items, key)) {
		t.Fatal("counts wrong")
	}
	if uncombinedBytes == 0 {
		t.Fatal("uncombined census shipped no accounted bytes")
	}
	if combinedBytes >= uncombinedBytes {
		t.Fatalf("combined census must ship strictly fewer bytes: combined=%d uncombined=%d",
			combinedBytes, uncombinedBytes)
	}
}

// TestCountByKeyPipelinedMatchesBarrier: the census through the pipelined
// shuffle equals the serial plain-Go count at every worker count, including
// W=1 where the pipelined pass degrades to the two-barrier schedule.
func TestCountByKeyPipelinedMatchesBarrier(t *testing.T) {
	items := intRange(900)
	key := func(x int) int { return x % 13 }
	for _, workers := range []int{1, 4} {
		counts, err := CountByKey("census", Parallelize(NewContext(workers), items, 6), key)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(counts, countReference(items, key)) {
			t.Fatalf("W=%d: pipelined CountByKey disagrees with the serial count", workers)
		}
	}
}

func TestKeyedIntCodecRoundTrip(t *testing.T) {
	f := func(keys []int32, vals []int32) bool {
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		pairs := make([]Keyed[int], n)
		for i := 0; i < n; i++ {
			pairs[i] = Keyed[int]{Key: int(keys[i]), Val: int(vals[i])}
		}
		block, err := KeyedIntCodec{}.Marshal(pairs)
		if err != nil {
			return false
		}
		got, err := KeyedIntCodec{}.Unmarshal(block)
		if err != nil {
			return false
		}
		if len(got) != len(pairs) {
			return false
		}
		for i := range got {
			if got[i] != pairs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyedIntCodecRejectsGarbage(t *testing.T) {
	if _, err := (KeyedIntCodec{}).Unmarshal(nil); err == nil {
		t.Fatal("nil block must not decode")
	}
	if _, err := (KeyedIntCodec{}).Unmarshal([]byte{0x05, 0x02}); err == nil {
		t.Fatal("truncated block must not decode")
	}
}

// TestKeyedIntCodecBoundsPairCount: a corrupt pair count must error before
// it sizes the slice — the allocate-before-validate shape gpflint/alloclen
// guards against (pre-fix this reserved 2^40 pairs, ~16 TiB).
func TestKeyedIntCodecBoundsPairCount(t *testing.T) {
	block := binary.AppendUvarint(nil, 1<<40)
	if _, err := (KeyedIntCodec{}).Unmarshal(block); err == nil {
		t.Fatal("pair count exceeding the payload must error, not allocate")
	}
}

// TestKeyedIntCodecCompact: sorted census-shaped pairs must encode well
// under gob's per-entry framing — the structural reason the combined census
// wins bytes.
func TestKeyedIntCodecCompact(t *testing.T) {
	pairs := make([]Keyed[int], 50)
	for i := range pairs {
		pairs[i] = Keyed[int]{Key: i, Val: 100 + i}
	}
	compact, err := KeyedIntCodec{}.Marshal(pairs)
	if err != nil {
		t.Fatal(err)
	}
	fat, err := gobSerializer[Keyed[int]]{}.Marshal(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(compact) >= len(fat) {
		t.Fatalf("keyed-varint (%dB) not smaller than gob (%dB)", len(compact), len(fat))
	}
}
