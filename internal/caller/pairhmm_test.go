package caller

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/gpf-go/gpf/internal/align"
	"github.com/gpf-go/gpf/internal/bufpool"
	"github.com/gpf-go/gpf/internal/cleaner"
	"github.com/gpf-go/gpf/internal/sam"
	"github.com/gpf-go/gpf/internal/workload"
)

// randomHMMCase builds a (read, qual, hap) triple: a haplotype, a read copied
// from a random window of it, then mutated with substitutions and indels.
func randomHMMCase(rng *rand.Rand, maxHap, maxRead int) (read, qual, hap []byte) {
	bases := []byte("ACGT")
	n := 10 + rng.Intn(maxHap-10)
	hap = make([]byte, n)
	for i := range hap {
		hap[i] = bases[rng.Intn(4)]
	}
	// Sometimes an N in the haplotype, which the read may copy: N never
	// matches, not even N.
	if rng.Float64() < 0.2 {
		hap[rng.Intn(n)] = 'N'
	}
	m := 5 + rng.Intn(maxRead-5)
	if m > n {
		m = n
	}
	off := rng.Intn(n - m + 1)
	read = append([]byte(nil), hap[off:off+m]...)
	// Mutations: substitutions, occasional N, occasional indel.
	for i := range read {
		switch r := rng.Float64(); {
		case r < 0.05:
			read[i] = bases[rng.Intn(4)]
		case r < 0.07:
			read[i] = 'N'
		}
	}
	if rng.Float64() < 0.3 && len(read) > 4 {
		cut := 1 + rng.Intn(3)
		at := rng.Intn(len(read) - cut)
		read = append(read[:at], read[at+cut:]...)
	}
	qual = make([]byte, len(read))
	for i := range qual {
		qual[i] = byte(33 + rng.Intn(42)) // Phred 0..41
	}
	// Sometimes drop trailing quals to exercise the missing-qual default.
	if rng.Float64() < 0.2 {
		qual = qual[:len(qual)/2]
	}
	return read, qual, hap
}

// TestKernelPairHMMScaledEquivalence checks the scaled linear-space kernel
// against the log-space reference to tight relative tolerance across random
// cases, including long reads where rescaling must engage.
func TestKernelPairHMMScaledEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	worst := 0.0
	for c := 0; c < 500; c++ {
		read, qual, hap := randomHMMCase(rng, 400, 300)
		want := pairHMMReference(read, qual, hap)
		rows := bufpool.GetF64(6 * (len(hap) + 1))
		got := pairHMMScaled(read, qual, hap, rows)
		bufpool.PutF64(rows)
		rel := math.Abs(got-want) / math.Abs(want)
		if rel > worst {
			worst = rel
		}
		if rel > 1e-9 {
			t.Fatalf("case %d (m=%d n=%d): scaled=%v reference=%v rel=%g",
				c, len(read), len(hap), got, want, rel)
		}
	}
	t.Logf("worst relative error over 500 cases: %g", worst)
}

// TestKernelPairHMMScaledRescale forces the underflow-rescue path: a read
// long enough that unscaled forward probabilities drop below 1e-260.
func TestKernelPairHMMScaledRescale(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	bases := []byte("ACGT")
	hap := make([]byte, 2000)
	for i := range hap {
		hap[i] = bases[rng.Intn(4)]
	}
	read := append([]byte(nil), hap[100:1900]...)
	for i := range read {
		if rng.Float64() < 0.08 {
			read[i] = bases[rng.Intn(4)]
		}
	}
	qual := make([]byte, len(read))
	for i := range qual {
		qual[i] = 33 + 30
	}
	want := pairHMMReference(read, qual, hap)
	rows := bufpool.GetF64(6 * (len(hap) + 1))
	got := pairHMMScaled(read, qual, hap, rows)
	bufpool.PutF64(rows)
	if want > -700 {
		t.Fatalf("case not deep enough to exercise rescaling: reference=%v", want)
	}
	rel := math.Abs(got-want) / math.Abs(want)
	if rel > 1e-9 {
		t.Fatalf("scaled=%v reference=%v rel=%g", got, want, rel)
	}
}

// TestKernelPairHMMDispatch checks that the public entry points run the
// scaled kernel — bit-identical to calling it directly, within 1e-9 relative
// of the log-space reference oracle — and that the single and batch entry
// points agree.
func TestKernelPairHMMDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var reads, quals, haps [][]byte
	for i := 0; i < 8; i++ {
		r, q, h := randomHMMCase(rng, 150, 80)
		reads, quals, haps = append(reads, r), append(quals, q), append(haps, h)
	}
	L := PairHMMBatch(reads, quals, haps)
	for i := range reads {
		for h := range haps {
			rows := bufpool.GetF64(6 * (len(haps[h]) + 1))
			scaled := pairHMMScaled(reads[i], quals[i], haps[h], rows)
			bufpool.PutF64(rows)
			if math.Float64bits(L[i][h]) != math.Float64bits(scaled) {
				t.Fatalf("batch [%d][%d] = %v, scaled kernel %v", i, h, L[i][h], scaled)
			}
			if single := PairHMMLogLikelihood(reads[i], quals[i], haps[h]); math.Float64bits(single) != math.Float64bits(scaled) {
				t.Fatalf("single [%d][%d] = %v, scaled kernel %v", i, h, single, scaled)
			}
			want := pairHMMReference(reads[i], quals[i], haps[h])
			if rel := math.Abs(L[i][h]-want) / math.Abs(want); rel > 1e-9 {
				t.Fatalf("batch vs reference [%d][%d]: %v vs %v rel=%g", i, h, L[i][h], want, rel)
			}
		}
	}
}

func TestKernelPairHMMEmptyInputs(t *testing.T) {
	if ll := PairHMMLogLikelihood(nil, nil, []byte("ACGT")); !math.IsInf(ll, -1) {
		t.Fatalf("empty read gave %v, want -Inf", ll)
	}
	if ll := PairHMMLogLikelihood([]byte("ACGT"), []byte("IIII"), nil); !math.IsInf(ll, -1) {
		t.Fatalf("empty hap gave %v, want -Inf", ll)
	}
	if ll := pairHMMReference(nil, nil, []byte("ACGT")); !math.IsInf(ll, -1) {
		t.Fatalf("reference: empty read gave %v, want -Inf", ll)
	}
	L := PairHMMBatch([][]byte{{}}, [][]byte{{}}, [][]byte{[]byte("ACGT")})
	if !math.IsInf(L[0][0], -1) {
		t.Fatalf("batch empty read gave %v, want -Inf", L[0][0])
	}
	L = PairHMMBatch(nil, nil, nil)
	if len(L) != 0 {
		t.Fatalf("empty batch: got %d rows", len(L))
	}
}

// TestPhredToProbQualShorterThanRead: positions past the end of the quality
// string default to Phred 30 (p = 1e-3), GATK's missing-quality stand-in.
func TestPhredToProbQualShorterThanRead(t *testing.T) {
	qual := []byte{33 + 10}
	if got, want := phredToProb(qual, 0), math.Pow(10, -1); got != want {
		t.Fatalf("in-range qual: got %v want %v", got, want)
	}
	want := math.Pow(10, -3)
	if got := phredToProb(qual, 1); got != want {
		t.Fatalf("past-end qual: got %v want %v", got, want)
	}
	if got := phredToProb(nil, 0); got != want {
		t.Fatalf("nil qual: got %v want %v", got, want)
	}
	// The fast kernels encode the same default as byte 63 ('?' = Phred 30).
	read, hap := []byte("ACGTACGT"), []byte("ACGTACGT")
	short := pairHMMReference(read, []byte("II"), hap)
	padded := make([]byte, len(read))
	copy(padded, "II")
	for i := 2; i < len(padded); i++ {
		padded[i] = defaultQualByte
	}
	full := pairHMMReference(read, padded, hap)
	if math.Float64bits(short) != math.Float64bits(full) {
		t.Fatalf("short-qual run %v != padded-default run %v", short, full)
	}
}

// TestPhredToProbLowQualClamps: qualities below Phred 2 — including bytes
// below 33, which decode to negative Phreds — clamp to Phred 2, and the error
// probability is capped at 0.25 (a base can't be more than uninformative over
// a 4-letter alphabet).
func TestPhredToProbLowQualClamps(t *testing.T) {
	want := 0.25 // Phred 2 → p = 10^-0.2 ≈ 0.63, capped at 0.25
	for _, b := range []byte{0, 1, 10, 32, 33, 34, 35} {
		if got := phredToProb([]byte{b}, 0); got != want {
			t.Fatalf("byte %d: got %v want %v", b, got, want)
		}
	}
	// First quality byte above the cap threshold: Phred 7 → p ≈ 0.1995.
	if got := phredToProb([]byte{33 + 7}, 0); got >= 0.25 || got < 0.19 {
		t.Fatalf("Phred 7: got %v, want ≈0.1995", got)
	}
	// emitTab must agree with phredToProb byte-for-byte.
	for b := 0; b < 256; b++ {
		p := phredToProb([]byte{byte(b)}, 0)
		e := emitTab[b]
		if e.pMatch != 1-p || e.pMismatch != p/3 {
			t.Fatalf("emitTab[%d] inconsistent with phredToProb", b)
		}
	}
}

func benchHMMInputs() (read, qual, hap []byte) {
	rng := rand.New(rand.NewSource(42))
	bases := []byte("ACGT")
	hap = make([]byte, 300)
	for i := range hap {
		hap[i] = bases[rng.Intn(4)]
	}
	read = append([]byte(nil), hap[50:150]...)
	for i := range read {
		if rng.Float64() < 0.03 {
			read[i] = bases[rng.Intn(4)]
		}
	}
	qual = make([]byte, len(read))
	for i := range qual {
		qual[i] = 33 + 30
	}
	return
}

func BenchmarkKernelPairHMMReference(b *testing.B) {
	read, qual, hap := benchHMMInputs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pairHMMReference(read, qual, hap)
	}
}

func BenchmarkKernelPairHMMFast(b *testing.B) {
	read, qual, hap := benchHMMInputs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PairHMMLogLikelihood(read, qual, hap)
	}
}

// regionHaps returns haplotypes shaped like one active region's: a reference
// window and variants of it that share prefixes of every length with the
// window and with each other.
func regionHaps(rng *rand.Rand, n int) [][]byte {
	ref := randomBases(rng, n)
	snv := func(h []byte, at int) []byte {
		h = append([]byte(nil), h...)
		h[at] = "CGTA"[strings.IndexByte("ACGT", h[at])]
		return h
	}
	ins := append(append(append([]byte(nil), ref[:n/2]...), "GA"...), ref[n/2:]...)
	del := append(append([]byte(nil), ref[:n/3]...), ref[n/3+3:]...)
	return [][]byte{
		ref,
		snv(ref, n/2),
		snv(ref, n-1),               // shares n-1 columns with ref
		snv(snv(ref, n/2), 3*n/4),   // shares 3n/4 with the SNV above
		append([]byte(nil), ref...), // duplicate
		snv(ref, 0),                 // shares nothing
		ins,
		del,
	}
}

func randomBases(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = "ACGT"[rng.Intn(4)]
	}
	return b
}

func (s *hmmBatchStats) add(o hmmBatchStats) {
	s.cells += o.cells
	s.reused += o.reused
	s.reads += o.reads
	s.fallbacks += o.fallbacks
}

// checkBatchBits asserts PairHMMBatch equals the per-pair oracle bit for bit
// and returns the batch's work counts.
func checkBatchBits(t *testing.T, name string, reads, quals, haps [][]byte) hmmBatchStats {
	t.Helper()
	got, st := pairHMMBatch(reads, quals, haps)
	want := pairHMMBatchPerPair(reads, quals, haps)
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, oracle %d", name, len(got), len(want))
	}
	for i := range want {
		for h := range want[i] {
			if math.Float64bits(got[i][h]) != math.Float64bits(want[i][h]) {
				t.Fatalf("%s: L[%d][%d] = %v, per-pair oracle %v", name, i, h, got[i][h], want[i][h])
			}
		}
	}
	if pub := PairHMMBatch(reads, quals, haps); len(pub) != len(got) {
		t.Fatalf("%s: PairHMMBatch returned %d rows", name, len(pub))
	}
	return st
}

// TestKernelPairHMMBatchPrefixReuse checks the prefix-sharing batch against
// the per-pair oracle bit for bit over region-shaped haplotype sets: mixed
// lengths, prefixes shared up to n-1 columns, duplicates, N bases in reads
// and haplotypes, empty reads and haplotypes, short quality strings, and
// reads long and foreign enough to make rows rescale, which must take the
// per-pair fallback.
func TestKernelPairHMMBatchPrefixReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var total hmmBatchStats
	for c := 0; c < 40; c++ {
		haps := regionHaps(rng, 40+rng.Intn(120))
		if c%5 == 0 {
			n := haps[0]
			withN := append([]byte(nil), n...)
			withN[len(withN)/3] = 'N'
			haps = append(haps, withN, nil, []byte("A"), []byte("A"))
		}
		var reads, quals [][]byte
		for r := 0; r < 12; r++ {
			read, qual, _ := randomHMMCase(rng, 60, 50)
			src := haps[rng.Intn(len(haps))]
			if len(src) > 20 {
				off := rng.Intn(len(src) - 10)
				read = append([]byte(nil), src[off:min(len(src), off+5+rng.Intn(80))]...)
				qual = qual[:min(len(qual), len(read))]
				if rng.Intn(4) == 0 {
					read[rng.Intn(len(read))] = 'N'
				}
			}
			reads, quals = append(reads, read), append(quals, qual)
		}
		reads, quals = append(reads, nil), append(quals, nil)
		// An all-N read mismatches every column; its cheapest path runs
		// through the insert state at probGG per row, one decade a row, so
		// past ~260 rows they rescale and the read must fall back.
		nRead := bytes.Repeat([]byte{'N'}, 300+rng.Intn(100))
		reads, quals = append(reads, nRead), append(quals, bytes.Repeat([]byte{33 + 40}, len(nRead)))
		st := checkBatchBits(t, fmt.Sprintf("case %d", c), reads, quals, haps)
		total.add(st)
	}
	if total.fallbacks == 0 {
		t.Fatal("no read took the rescale fallback")
	}
	if total.reused == 0 {
		t.Fatal("no forward cell was reused")
	}
	t.Logf("reused %d of %d cells (%.1f%%); %d of %d reads fell back",
		total.reused, total.cells, 100*float64(total.reused)/float64(total.cells), total.fallbacks, total.reads)
	// Degenerate shapes.
	checkBatchBits(t, "no reads", nil, nil, [][]byte{[]byte("ACGT")})
	checkBatchBits(t, "no haps", [][]byte{[]byte("ACGT")}, [][]byte{[]byte("IIII")}, nil)
	checkBatchBits(t, "only empty haps", [][]byte{[]byte("ACGT")}, [][]byte{[]byte("IIII")}, [][]byte{nil, {}})
}

// TestKernelPairHMMReuseShare logs how much pair-HMM work prefix reuse saves
// and how often the rescale fallback runs over the active regions of the
// SmallScale seed-42 dataset, and checks every region's matrix against the
// per-pair oracle.
func TestKernelPairHMMReuseShare(t *testing.T) {
	p := workload.DefaultProfile(workload.WGS, 30000)
	p.Coverage = 8
	d := workload.Make(p, 42)
	idx, err := align.BuildFMIndex(d.Ref)
	if err != nil {
		t.Fatal(err)
	}
	aligner := align.NewAligner(idx, align.DefaultConfig())
	var records []sam.Record
	for i := range d.Pairs {
		r1, r2 := aligner.AlignPair(&d.Pairs[i])
		records = append(records, r1, r2)
	}
	cleaner.SortByCoordinate(records)
	cleaner.MarkDuplicates(records)
	cfg := DefaultConfig()
	var total hmmBatchStats
	regions := FindActiveRegions(records, d.Ref, cfg)
	for _, region := range regions {
		w, ok := gatherRegion(records, d.Ref, region, cfg)
		if !ok {
			continue
		}
		st := checkBatchBits(t, d.Ref.FormatRegion(region), w.seqs, w.quals, w.haps)
		total.add(st)
	}
	if total.cells == 0 {
		t.Fatal("no pair-HMM work over the dataset")
	}
	t.Logf("%d active regions: reused %d of %d forward cells (%.1f%%); %d of %d reads fell back to per-pair (%.2f%%)",
		len(regions), total.reused, total.cells, 100*float64(total.reused)/float64(total.cells),
		total.fallbacks, total.reads, 100*float64(total.fallbacks)/float64(total.reads))
}

// benchBatchInputs is one region-shaped batch: 16 reads of 100 bp drawn
// from the haplotypes of regionHaps over a 160 bp window.
func benchBatchInputs() (reads, quals, haps [][]byte) {
	rng := rand.New(rand.NewSource(42))
	haps = regionHaps(rng, 160)
	for r := 0; r < 16; r++ {
		src := haps[r%len(haps)]
		off := rng.Intn(len(src) - 100)
		read := append([]byte(nil), src[off:off+100]...)
		for i := range read {
			if rng.Float64() < 0.01 {
				read[i] = "ACGT"[rng.Intn(4)]
			}
		}
		reads, quals = append(reads, read), append(quals, bytes.Repeat([]byte{33 + 30}, len(read)))
	}
	return reads, quals, haps
}

func BenchmarkKernelPairHMMBatchPerPair(b *testing.B) {
	reads, quals, haps := benchBatchInputs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pairHMMBatchPerPair(reads, quals, haps)
	}
}

func BenchmarkKernelPairHMMBatch(b *testing.B) {
	reads, quals, haps := benchBatchInputs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PairHMMBatch(reads, quals, haps)
	}
}
