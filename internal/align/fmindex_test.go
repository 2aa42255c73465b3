package align

import (
	"math/rand"
	"testing"

	"github.com/gpf-go/gpf/internal/genome"
)

// byteBWT is the unpacked reference the packed index must agree with: one
// byte per BWT row (0 = sentinel, 1..4 = A..T) and a linear-scan rank.
type byteBWT []byte

func newByteBWT(ref *genome.Reference) byteBWT {
	text, _ := indexText(ref)
	sa := buildSuffixArray(text)
	bwt := make(byteBWT, len(text))
	for i, p := range sa {
		if p == 0 {
			bwt[i] = text[len(text)-1]
		} else {
			bwt[i] = text[p-1]
		}
	}
	return bwt
}

func (b byteBWT) rank(c byte, i int32) int32 {
	var r int32
	for _, s := range b[:i] {
		if s == c {
			r++
		}
	}
	return r
}

// checkRankOracle compares rank for every symbol and row boundary, and lf
// for every row, against the byte BWT.
func checkRankOracle(t *testing.T, ref *genome.Reference) {
	t.Helper()
	idx, err := BuildFMIndex(ref)
	if err != nil {
		t.Fatal(err)
	}
	bwt := newByteBWT(ref)
	if len(bwt) != idx.n {
		t.Fatalf("text length %d, index n %d", len(bwt), idx.n)
	}
	if bwt[idx.primary] != sentinel {
		t.Fatalf("primary row %d holds %d, not the sentinel", idx.primary, bwt[idx.primary])
	}
	for i := int32(0); i <= int32(idx.n); i++ {
		for c := byte(1); c < numSymbols; c++ {
			if got, want := idx.rank(c, i), bwt.rank(c, i); got != want {
				t.Fatalf("n=%d primary=%d: rank(%d, %d) = %d, want %d", idx.n, idx.primary, c, i, got, want)
			}
		}
		if i == int32(idx.n) {
			break
		}
		c := bwt[i]
		if got, want := idx.lf(i), idx.counts[c]+bwt.rank(c, i); got != want {
			t.Fatalf("n=%d primary=%d: lf(%d) = %d, want %d", idx.n, idx.primary, i, got, want)
		}
	}
}

func randomRef(rng *rand.Rand, n int) *genome.Reference {
	return genome.NewReference([]genome.Contig{{Name: "chr1", Seq: randomBases(rng, n, "ACGTACGTACGTN")}})
}

// TestKernelRankOracle checks the packed rank and lf against the byte-BWT
// oracle at every row, for text lengths n ≡ 0, 1 and 63 (mod 64) and for
// the sentinel row on both edges of a block.
func TestKernelRankOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, n := range []int{2, 63, 64, 65, 127, 128, 129, 640, 641, 703} {
		checkRankOracle(t, randomRef(rng, n-1)) // n counts the sentinel
	}
	// Search random texts for a sentinel row at offset 0 and 63 of a block.
	edges := map[int32]bool{}
	for try := 0; try < 2000 && len(edges) < 2; try++ {
		ref := randomRef(rng, 200+rng.Intn(400))
		idx, err := BuildFMIndex(ref)
		if err != nil {
			t.Fatal(err)
		}
		if e := idx.primary % blockRows; (e == 0 || e == blockRows-1) && !edges[e] {
			edges[e] = true
			checkRankOracle(t, ref)
		}
	}
	if len(edges) < 2 {
		t.Fatalf("found sentinel block edges %v, want offsets 0 and 63", edges)
	}
}

// TestBackwardSearchRejectsLowercase: seeds are matched only on uppercase
// A/C/G/T, so a lowercase (soft-masked) seed must not match even though its
// bases code the same.
func TestBackwardSearchRejectsLowercase(t *testing.T) {
	idx := testIndex(t, 2000, 105)
	seq := idx.Reference().Contigs[0].Seq
	var upper []byte
	for off := 0; off+12 <= len(seq) && upper == nil; off++ {
		if w := seq[off : off+12]; idx.BackwardSearch(w).Size() > 0 {
			upper = w
		}
	}
	if upper == nil {
		t.Fatal("no uppercase seed found in the reference")
	}
	lower := []byte(string(upper))
	lower[5] += 'a' - 'A'
	if iv := idx.BackwardSearch(lower); iv.Size() != 0 {
		t.Fatalf("lowercase seed %q matched %d rows", lower, iv.Size())
	}
}

func BenchmarkKernelRank(b *testing.B) {
	idx, err := BuildFMIndex(genome.Synthesize(genome.DefaultSynthConfig(207, 200000, 1)))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(53))
	rows := make([]int32, 1024)
	for i := range rows {
		rows[i] = int32(rng.Intn(idx.n + 1))
	}
	b.ResetTimer()
	var sink int32
	for i := 0; i < b.N; i++ {
		sink += idx.rank(byte(1+i&3), rows[i&1023])
	}
	_ = sink
}
