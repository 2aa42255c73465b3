package align

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/gpf-go/gpf/internal/genome"
	"github.com/gpf-go/gpf/internal/workload"
)

// checkUngapped compares the ungapped tier with the full DP on one input.
// It fails on any accepted answer that differs and reports whether the tier
// accepted.
func checkUngapped(t *testing.T, tag string, read, window []byte, sc Scoring) bool {
	t.Helper()
	got, ok := fitAlignUngapped(read, window, sc)
	if !ok {
		return false
	}
	want := fitAlignFull(read, window, sc)
	if got.Score != want.Score || got.RefStart != want.RefStart || got.Cigar.String() != want.Cigar.String() {
		t.Fatalf("%s (m=%d n=%d):\nungapped score=%d start=%d cigar=%s\nfull     score=%d start=%d cigar=%s",
			tag, len(read), len(window),
			got.Score, got.RefStart, got.Cigar, want.Score, want.RefStart, want.Cigar)
	}
	return true
}

func randomBases(rng *rand.Rand, n int, alphabet string) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return out
}

// TestKernelFitAlignUngappedEquivalence: on reads carved from random
// windows with few substitutions and the occasional indel, the ungapped
// tier must reproduce the full DP exactly (score, RefStart, CIGAR) whenever
// its certificate accepts. Low-complexity alphabets make tied diagonals
// common.
func TestKernelFitAlignUngappedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	accepted := 0
	const cases = 1500
	for c := 0; c < cases; c++ {
		alphabet := [...]string{"ACGT", "ACGT", "AC", "A", "ACGTN"}[rng.Intn(5)]
		n := 20 + rng.Intn(200)
		window := randomBases(rng, n, alphabet)
		rl := 5 + rng.Intn(n-5)
		off := rng.Intn(n - rl + 1)
		read := mutateRead(rng, window[off:off+rl], 0.01*float64(rng.Intn(4)), rng.Intn(2), 3)
		if rng.Intn(8) == 0 {
			read[rng.Intn(len(read))] = 'N'
		}
		if checkUngapped(t, "random", read, window, DefaultScoring()) {
			accepted++
		}
	}
	if accepted < cases/4 {
		t.Fatalf("ungapped tier accepted only %d/%d cases; the property is near vacuous", accepted, cases)
	}
}

// TestKernelFitAlignUngappedAdversarial covers the certificate's edges.
func TestKernelFitAlignUngappedAdversarial(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	sc := DefaultScoring()
	window := randomBases(rng, 160, "ACGT")
	const L, at = 100, 30
	exact := window[at : at+L]

	// One mismatch scores L−5, above the gapped bound L−6: must certify.
	one := append([]byte(nil), exact...)
	one[50] = genome.Complement(one[50])
	if !checkUngapped(t, "one mismatch", one, window, sc) {
		t.Fatal("one-mismatch read refused")
	}
	if fit, _ := fitAlignUngapped(one, window, sc); fit.Score != L-5 || fit.RefStart != at {
		t.Fatalf("one mismatch: %+v, want score %d at %d", fit, L-5, at)
	}
	// Two mismatches score L−10, below a 1-bp deletion's L−6: must refuse.
	two := append([]byte(nil), one...)
	two[70] = genome.Complement(two[70])
	if checkUngapped(t, "two mismatches", two, window, sc) {
		t.Fatal("two-mismatch read certified")
	}
	// A 1-bp deletion from the read (score L−6 with the gap) must refuse:
	// no ungapped diagonal can certify it.
	del := append(append([]byte(nil), window[at:at+50]...), window[at+51:at+L+1]...)
	if checkUngapped(t, "deletion", del, window, sc) {
		t.Fatal("1-bp deletion read certified")
	}
	if want := fitAlignFull(del, window, sc); want.Score != L-6 {
		t.Fatalf("deletion case: full DP score %d, want %d", want.Score, L-6)
	}

	// Tandem repeats: many diagonals tie and the smallest must win.
	repeat := bytes.Repeat([]byte("CA"), 40)
	for _, read := range [][]byte{repeat[:30], repeat[1:31], []byte("CACACACAGACACA")} {
		if !checkUngapped(t, "tandem", read, repeat, sc) {
			t.Fatalf("tandem read %q refused", read)
		}
	}

	// N never matches, in the read or in the window.
	nRead := append([]byte(nil), exact...)
	nRead[10] = 'N'
	if !checkUngapped(t, "N in read", nRead, window, sc) {
		t.Fatal("read with one N refused")
	}
	nRead[20] = 'N'
	if checkUngapped(t, "two N in read", nRead, window, sc) {
		t.Fatal("read with two Ns certified")
	}
	nWin := append([]byte(nil), window...)
	nWin[at+5] = 'N'
	if !checkUngapped(t, "N in window", exact, nWin, sc) {
		t.Fatal("window with one N refused")
	}
	nBoth := append([]byte(nil), exact...)
	nBoth[5] = 'N'
	if fit, ok := fitAlignUngapped(nBoth, nWin, sc); !ok || fit.Score != L-5 {
		t.Fatalf("N against N must score a mismatch: %+v ok=%v", fit, ok)
	}
	checkUngapped(t, "N against N", nBoth, nWin, sc)

	// A window shorter than the read falls through to the next tier.
	if _, ok := fitAlignUngapped(exact, exact[:L-1], sc); ok {
		t.Fatal("window shorter than the read certified")
	}
	if _, ok := fitAlignUngapped(nil, window, sc); ok {
		t.Fatal("empty read certified")
	}
}

// TestKernelFitAlignUngappedScoringRefusal: with scorings where a gapped
// path can tie or beat an ungapped one, the certificate must refuse and the
// dispatcher must still return the full DP's answer.
func TestKernelFitAlignUngappedScoringRefusal(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	window := randomBases(rng, 120, "ACGT")
	read := append([]byte(nil), window[10:90]...)
	read[40] = genome.Complement(read[40])
	for _, sc := range []Scoring{
		{Match: 1, Mismatch: -4, GapOpen: 0, GapExtend: -1},  // free gap open: S_gap = m
		{Match: 1, Mismatch: -3, GapOpen: -1, GapExtend: -1}, // a mismatch costs more than a gap
		{Match: 1, Mismatch: 1, GapOpen: -6, GapExtend: -1},  // positive mismatch: unsigned
	} {
		if _, ok := fitAlignUngapped(read, window, sc); ok {
			t.Fatalf("scoring %+v: certificate accepted", sc)
		}
		got, want := fitAlign(read, window, sc), fitAlignFull(read, window, sc)
		if got.Score != want.Score || got.RefStart != want.RefStart || got.Cigar.String() != want.Cigar.String() {
			t.Fatalf("scoring %+v: dispatch %+v, full %+v", sc, got, want)
		}
	}
	// An exact read still certifies under a cheaper gap, as long as the
	// perfect score beats S_gap.
	sc := Scoring{Match: 2, Mismatch: -1, GapOpen: -1, GapExtend: -1}
	if !checkUngapped(t, "exact, cheap gap", window[10:90], window, sc) {
		t.Fatal("exact read refused")
	}
}

// TestKernelFitAlignUngappedShare logs how many of the aligner's fit calls
// on the SmallScale seed-42 dataset the ungapped tier answers, and guards
// the share the aligner's speed rests on.
func TestKernelFitAlignUngappedShare(t *testing.T) {
	p := workload.DefaultProfile(workload.WGS, 30000)
	p.Coverage = 8
	d := workload.Make(p, 42)
	idx, err := BuildFMIndex(d.Ref)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAligner(idx, DefaultConfig())
	calls, certified := 0, 0
	for i := range d.Pairs {
		for _, r := range [...][]byte{d.Pairs[i].R1.Seq, d.Pairs[i].R2.Seq} {
			for _, seq := range [...][]byte{r, genome.ReverseComplement(r)} {
				for _, c := range a.seedCandidates(seq) {
					_, window, ok := a.candidateWindow(c, len(seq))
					if !ok {
						continue
					}
					calls++
					if _, ok := fitAlignUngapped(seq, window, a.cfg.Scoring); ok {
						certified++
					}
				}
			}
		}
	}
	share := float64(certified) / float64(calls)
	t.Logf("ungapped tier certified %d of %d fit calls (%.1f%%)", certified, calls, 100*share)
	if share < 0.95 {
		t.Fatalf("ungapped share %.3f below 0.95", share)
	}
}

func BenchmarkKernelFitAlignUngapped(b *testing.B) {
	rng := rand.New(rand.NewSource(33))
	window := randomBases(rng, 100+2*16, "ACGT")
	// A typical aligner call: a 100 bp read with one substitution, in a
	// window of Flank=16 on each side.
	read := append([]byte(nil), window[16:116]...)
	read[60] = genome.Complement(read[60])
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := fitAlignUngapped(read, window, DefaultScoring()); !ok {
			b.Fatal("certificate refused benchmark input")
		}
	}
}
