package caller

import (
	"math"
	"math/rand"
	"testing"

	"github.com/gpf-go/gpf/internal/bufpool"
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

func BenchmarkKernelPairHMMBatch(b *testing.B) {
	read, qual, hap := benchHMMInputs()
	reads := [][]byte{read, read, read, read}
	quals := [][]byte{qual, qual, qual, qual}
	haps := [][]byte{hap, hap}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PairHMMBatch(reads, quals, haps)
	}
}
