package caller

import (
	"bytes"
	"math"
	"sort"

	"github.com/gpf-go/gpf/internal/bufpool"
)

// Log-space pair-HMM (the paired-HMM of the paper's HaplotypeCaller
// description): the forward algorithm over match/insert/delete states
// computes P(read | haplotype) with per-base emission probabilities taken
// from the read's quality string. This is the CPU-dominant kernel of the
// Caller phase (Fig 13 shows variant calling as compute-bound), so it gets
// the full profile-driven treatment (see DESIGN.md, "Hot kernels"):
// pairHMMScaled computes the forward recurrence in probability space with
// per-row rescaling (the GATK PairHMM approach), which removes every
// transcendental from the inner loop — a cell costs a handful of
// multiply-adds instead of four log-sum-exps. Its equivalence oracle, the
// original cell-by-cell log-space pass (pairHMMReference), lives in the test
// files. The two are not bit-identical (log space itself is the lossy
// encoding; the scaled pass tracks the true forward probabilities), but
// agree to ~1e-12 relative — far below anything the genotyper's likelihood
// comparisons can observe; the golden pipeline digest was recorded with
// both and is identical.

// HMM transition probabilities (GATK-like defaults).
const (
	gapOpenProb   = 1e-4
	gapExtendProb = 0.1
)

// Linear-space transition probabilities.
const (
	probMM = 1 - 2*gapOpenProb
	probMG = gapOpenProb
	probGG = gapExtendProb
	probGM = 1 - gapExtendProb
)

// logSumExp2 returns log(exp(a)+exp(b)) stably.
func logSumExp2(a, b float64) float64 {
	if math.IsInf(a, -1) {
		return b
	}
	if math.IsInf(b, -1) {
		return a
	}
	if a < b {
		a, b = b, a
	}
	return a + math.Log1p(math.Exp(b-a))
}

// defaultQualByte is the Phred+33 byte assumed for read positions beyond the
// end of the quality string (phredToProb's q=30 default).
const defaultQualByte = 30 + 33

// emitEntry is one row of the precomputed emission table: the emission
// probabilities for a match and a mismatch at one quality byte.
type emitEntry struct {
	pMatch    float64
	pMismatch float64
}

// emitTab maps a raw Phred+33 quality byte to its emission terms, computed
// with phredToProb's int(b)-33 conversion, clamps and math.Pow. Bytes below
// 33 yield negative Phred scores and fall into phredToProb's q<2 clamp.
var emitTab = func() (t [256]emitEntry) {
	for b := 0; b < 256; b++ {
		p := phredToProb([]byte{byte(b)}, 0)
		t[b] = emitEntry{pMatch: 1 - p, pMismatch: p / 3}
	}
	return
}()

// PairHMMLogLikelihood returns ln P(read | hap) under the pair-HMM with
// quality-derived emissions. qual holds Phred+33 bytes parallel to read.
func PairHMMLogLikelihood(read, qual, hap []byte) float64 {
	if len(read) == 0 || len(hap) == 0 {
		return math.Inf(-1)
	}
	rows := bufpool.GetF64(6 * (len(hap) + 1))
	ll := pairHMMScaled(read, qual, hap, rows)
	bufpool.PutF64(rows)
	return ll
}

// PairHMMBatch scores every read against every haplotype, returning
// L[read][hap] = ln P(read | hap), bit-identical to pairHMMScaled run per
// pair. This is the entry point the genotyper uses for one active region's
// read×haplotype likelihood matrix, and it exploits the region's shape: the
// assembled haplotypes are mostly the reference window with a variant or
// two, so equal-length haplotypes share long prefixes. While no row
// rescales, forward column j of a row depends only on hap[:j], the read, and
// the start prior 1/n, so after sorting the haplotypes by (length, bytes)
// each one copies the columns it shares with its predecessor and computes
// only the rest (GATK's hapStartIndex). See forwardShared for the exactness
// certificate. quals is parallel to reads.
func PairHMMBatch(reads, quals, haps [][]byte) [][]float64 {
	L, _ := pairHMMBatch(reads, quals, haps)
	return L
}

// hmmBatchStats counts one batch's forward work.
type hmmBatchStats struct {
	cells     int64 // forward cells the per-pair kernel computes for the batch
	reused    int64 // of those, cells copied from the previous haplotype's row
	reads     int   // non-empty reads scored against non-empty haplotypes
	fallbacks int   // reads rescored per pair because a row might rescale
}

// batchHap is one non-empty haplotype of a batch, in sorted order.
type batchHap struct {
	hap   []byte
	idx   int     // position in the caller's haps
	share int     // leading columns copied from the previous batchHap
	start float64 // the uniform start prior 1/n
	buf   []float64
	rows  hmmRows
}

// sortedHaps orders the non-empty haplotypes by (length, bytes) and sets
// each one's share: its common prefix with the previous haplotype when the
// two have equal length (the row-1 prior 1/n differs otherwise), capped at
// n-1 so at least the last column is computed.
func sortedHaps(haps [][]byte) []batchHap {
	var bh []batchHap
	for h, hap := range haps {
		if len(hap) > 0 {
			bh = append(bh, batchHap{hap: hap, idx: h, start: 1 / float64(len(hap))})
		}
	}
	sort.SliceStable(bh, func(a, b int) bool {
		if len(bh[a].hap) != len(bh[b].hap) {
			return len(bh[a].hap) < len(bh[b].hap)
		}
		return bytes.Compare(bh[a].hap, bh[b].hap) < 0
	})
	for k := 1; k < len(bh); k++ {
		prev, cur := bh[k-1].hap, bh[k].hap
		if len(prev) != len(cur) {
			continue
		}
		s := 0
		for s < len(cur)-1 && prev[s] == cur[s] {
			s++
		}
		bh[k].share = s
	}
	return bh
}

// pairHMMBatch is PairHMMBatch, also returning the batch's work counts.
func pairHMMBatch(reads, quals, haps [][]byte) ([][]float64, hmmBatchStats) {
	var st hmmBatchStats
	L := make([][]float64, len(reads))
	flat := make([]float64, len(reads)*len(haps))
	for i := range L {
		L[i] = flat[i*len(haps) : (i+1)*len(haps) : (i+1)*len(haps)]
	}
	if len(reads) == 0 || len(haps) == 0 {
		return L, st
	}
	bh := sortedHaps(haps)
	size := 0
	for k := range bh {
		size += 6 * (len(bh[k].hap) + 1)
	}
	slab := bufpool.GetF64(size)
	defer bufpool.PutF64(slab)
	off := 0
	for k := range bh {
		w := 6 * (len(bh[k].hap) + 1)
		bh[k].buf = slab[off : off+w : off+w]
		off += w
	}
	negInf := math.Inf(-1)
	for i, read := range reads {
		out := L[i]
		for h := range out {
			out[h] = negInf // empty reads and haplotypes keep -Inf
		}
		if len(read) == 0 || len(bh) == 0 {
			continue
		}
		st.reads++
		for k := range bh {
			st.cells += int64(len(read) * len(bh[k].hap))
		}
		if forwardShared(read, quals[i], bh, out) {
			for k := range bh {
				st.reused += int64(len(read) * bh[k].share)
			}
			continue
		}
		st.fallbacks++
		for k := range bh {
			out[bh[k].idx] = pairHMMScaled(read, quals[i], bh[k].hap, bh[k].buf)
		}
	}
	return L, st
}

// forwardShared runs the forward pass of read against every haplotype of bh
// row by row, copying each haplotype's shared prefix columns from its
// predecessor's row, and writes ln P(read | hap) into out. It reports false
// when it cannot certify the result equals pairHMMScaled's.
//
// Certificate: pairHMMScaled rescales a row only when its maximum M/I value
// is below scaledRescaleBelow, and a rescaled row holds values that depend on
// every column — a copied prefix would then be stale. The computed columns
// of a row are a subset of the full row, so if their maximum reaches the
// threshold, the full row's does too, pairHMMScaled leaves that row
// unscaled, and every cell (copied or computed) is the same product of the
// same operands. When any row's computed maximum falls short, forwardShared gives
// up and the caller rescores the read per pair.
func forwardShared(read, qual []byte, bh []batchHap, out []float64) bool {
	for k := range bh {
		bh[k].rows = newHMMRows(bh[k].buf, len(bh[k].hap))
	}
	for i := 1; i <= len(read); i++ {
		e := emitAt(qual, i-1)
		rb := read[i-1]
		for k := range bh {
			h := &bh[k]
			if s := h.share; s > 0 {
				p := &bh[k-1].rows
				copy(h.rows.curM[1:s+1], p.curM[1:s+1])
				copy(h.rows.curI[1:s+1], p.curI[1:s+1])
				copy(h.rows.curD[1:s+1], p.curD[1:s+1])
			}
			if h.rows.row(i == 1, rb, e, h.hap, h.start, h.share+1) < scaledRescaleBelow {
				return false
			}
		}
		for k := range bh {
			bh[k].rows.swap()
		}
	}
	// No row rescaled, so logScale is 0 and the last row's maximum is
	// positive: total > 0.
	for k := range bh {
		out[bh[k].idx] = math.Log(bh[k].rows.total())
	}
	return true
}

// scaledRescaleBelow triggers a row rescale in pairHMMScaled: when the row
// maximum falls below it, the whole row is renormalized and the factor moved
// into logScale, keeping every cell far from the float64 underflow cliff.
// 1e-260 leaves ~48 decades of headroom above the smallest normal float64,
// more than any single row transition can consume.
const scaledRescaleBelow = 1e-260

// emitAt returns the emission terms for read position i, applying the
// missing-quality default past the end of qual.
func emitAt(qual []byte, i int) *emitEntry {
	if i < len(qual) {
		return &emitTab[qual[i]]
	}
	return &emitTab[defaultQualByte]
}

// hmmRows is the rolling forward state of one haplotype: the previous and
// current rows of the M, I and D matrices over columns 0..n.
type hmmRows struct {
	prevM, prevI, prevD []float64
	curM, curI, curD    []float64
}

// newHMMRows lays the six rows out over buf (length ≥ 6*(n+1), arbitrary
// contents) and zeroes the previous rows: row 0 of the forward pass.
func newHMMRows(buf []float64, n int) hmmRows {
	w := n + 1
	r := hmmRows{
		prevM: buf[0:w], prevI: buf[w : 2*w], prevD: buf[2*w : 3*w],
		curM: buf[3*w : 4*w], curI: buf[4*w : 5*w], curD: buf[5*w : 6*w],
	}
	clear(r.prevM)
	clear(r.prevI)
	clear(r.prevD)
	return r
}

// swap makes the current row the previous one.
func (r *hmmRows) swap() {
	r.prevM, r.curM = r.curM, r.prevM
	r.prevI, r.curI = r.curI, r.prevI
	r.prevD, r.curD = r.curD, r.prevD
}

// row computes columns from..n of the current row from the previous one and
// returns the largest M or I value among them. first marks row 1, whose
// match cells start from the uniform prior instead of the previous row.
// Columns 0..from-1 must already hold this row's values (column 0 is 0).
// The loop walks column-aligned subslices (index k is column from+k) and
// carries the left neighbour's M and D in registers; each cell is the same
// arithmetic on the same operands whichever columns a caller asks for.
func (r *hmmRows) row(first bool, rb byte, e *emitEntry, hap []byte, start float64, from int) float64 {
	n := len(hap)
	r.curM[0], r.curI[0], r.curD[0] = 0, 0, 0
	// emit[1] is the match term, taken where rb equals the haplotype base;
	// an N read base matches nothing. Indexing by the comparison instead
	// of branching on it keeps the ~1-in-4 matches off the branch predictor.
	emit := [2]float64{e.pMismatch, e.pMatch}
	if rb == 'N' {
		emit[1] = e.pMismatch
	}
	h := hap[from-1:]
	cm, ci, cd := r.curM[from:n+1], r.curI[from:n+1], r.curD[from:n+1]
	cm, ci, cd = cm[:len(h)], ci[:len(h)], cd[:len(h)]
	mLeft, dLeft := r.curM[from-1], r.curD[from-1]
	rowMax := 0.0
	if first {
		for k, hb := range h {
			mv := emit[eqBit(rb, hb)&1] * start
			dv := mLeft*probMG + dLeft*probGG
			cm[k], ci[k], cd[k] = mv, 0, dv
			mLeft, dLeft = mv, dv
			if mv > rowMax {
				rowMax = mv
			}
		}
		return rowMax
	}
	// Diagonal (column j-1) and up (column j) views of the previous row.
	pmDiag, piDiag, pdDiag := r.prevM[from-1:n], r.prevI[from-1:n], r.prevD[from-1:n]
	pmUp, piUp := r.prevM[from:n+1], r.prevI[from:n+1]
	pmDiag, piDiag, pdDiag = pmDiag[:len(h)], piDiag[:len(h)], pdDiag[:len(h)]
	pmUp, piUp = pmUp[:len(h)], piUp[:len(h)]
	for k, hb := range h {
		mv := emit[eqBit(rb, hb)&1] * (pmDiag[k]*probMM + (piDiag[k]+pdDiag[k])*probGM)
		iv := pmUp[k]*probMG + piUp[k]*probGG
		dv := mLeft*probMG + dLeft*probGG
		cm[k], ci[k], cd[k] = mv, iv, dv
		mLeft, dLeft = mv, dv
		if mv > rowMax {
			rowMax = mv
		}
		if iv > rowMax {
			rowMax = iv
		}
	}
	return rowMax
}

// eqBit returns 1 when a == b and 0 otherwise.
func eqBit(a, b byte) int {
	if a == b {
		return 1
	}
	return 0
}

// total is the free trailing flank: the sum over end columns of M and I in
// the last computed row (after its swap).
func (r *hmmRows) total() float64 {
	total := 0.0
	for j := 1; j < len(r.prevM); j++ {
		total += r.prevM[j] + r.prevI[j]
	}
	return total
}

// pairHMMScaled is the pair-HMM kernel: the forward recurrence computed on
// probabilities with per-row rescaling instead of in log space. One cell
// costs six multiply-adds — no math.Log, math.Exp or math.Log1p — which is
// where the kernel's ~30x over the log-space reference comes from. rows is
// caller scratch of length ≥ 6*(n+1), arbitrary contents.
func pairHMMScaled(read, qual, hap []byte, rows []float64) float64 {
	m, n := len(read), len(hap)
	if m == 0 || n == 0 {
		return math.Inf(-1)
	}
	r := newHMMRows(rows, n)
	logScale := 0.0
	start := 1 / float64(n) // uniform prior over start columns
	for i := 1; i <= m; i++ {
		rowMax := r.row(i == 1, read[i-1], emitAt(qual, i-1), hap, start, 1)
		if rowMax > 0 && rowMax < scaledRescaleBelow {
			inv := 1 / rowMax
			for j := 1; j <= n; j++ {
				r.curM[j] *= inv
				r.curI[j] *= inv
				r.curD[j] *= inv
			}
			logScale += math.Log(rowMax)
		}
		r.swap()
	}
	total := r.total()
	if total == 0 {
		return math.Inf(-1)
	}
	return math.Log(total) + logScale
}

// phredToProb converts the Phred+33 quality byte at read position i to a
// base error probability, following GATK's conventions:
//
//   - Positions beyond the quality string default to Phred 30 (the common
//     "missing quality" stand-in, 1e-3 error).
//   - Qualities below Phred 2 are clamped up to 2: sequencers emit 0/1 as
//     "no call" markers, not calibrated probabilities, and a literal Phred 0
//     would mean p=1 — a base guaranteed wrong, which would let a single
//     marker byte veto an otherwise perfect alignment (GATK applies the same
//     floor as its minimum usable quality).
//   - The error probability is capped at 0.25: with a 4-letter alphabet a
//     base conveys no information once all four calls are equally likely, so
//     probabilities past 1/4 would overstate the evidence against a match
//     (bytes below 33 — malformed Phred+33 input — land here via the q<2
//     clamp and are treated as nearly information-free rather than
//     rejected).
func phredToProb(qual []byte, i int) float64 {
	q := 30.0
	if i < len(qual) {
		q = float64(int(qual[i]) - 33)
	}
	if q < 2 {
		q = 2
	}
	p := math.Pow(10, -q/10)
	if p > 0.25 {
		p = 0.25
	}
	return p
}
