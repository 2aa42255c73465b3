package align

import "github.com/gpf-go/gpf/internal/sam"

// Ungapped fit (see DESIGN.md, "Hot kernels"): the first tier of fitAlign.
// Most reads fit their window with no indel and at most one mismatch, and
// for those the whole Gotoh matrix only re-derives one diagonal. This
// kernel scores every ungapped diagonal d ∈ [0, n−m] directly — read[i]
// against window[d+i] with the DP's own predicate (equal and not 'N') —
// and answers only when it can prove the full DP would answer the same.
//
// Certificate. Under the sign constraints of scoringSigned (Match ≥ 0,
// Mismatch, GapOpen, GapExtend ≤ 0), a path with at least one gap matches
// at most m read bases and pays GapOpen for its first gap and nothing
// positive for the rest, so it scores at most
//
//	S_gap = m·Match + GapOpen.
//
// If the best ungapped score S strictly exceeds S_gap, every gapped path is
// strictly worse than S, so the full DP's optimum is S and is reached only
// by ungapped diagonals. Its end-column scan (ascending, strict >) then
// stops at the smallest such diagonal, and its traceback (M preferred on
// ties) walks that diagonal back to row 0: every gapped predecessor of a
// cell on it would complete into a gapped path of score ≥ S. So the result
// is exactly {S, d, mM}, d the smallest diagonal scoring S. With the
// default scoring S_gap = m−6 and one mismatch costs 5, so a read certifies
// with at most one mismatch.
//
// Each diagonal stops at the mismatch that drops its best possible score
// to max(S_gap, best so far), so off-target diagonals cost a few bytes.
// TestKernelFitAlignUngappedEquivalence checks the tier against the full
// DP.

// scoringSigned reports whether sc has the usual score-sign shape that the
// ungapped and banded certificates assume.
func scoringSigned(sc Scoring) bool {
	return sc.Match >= 0 && sc.Mismatch <= 0 && sc.GapOpen <= 0 && sc.GapExtend <= 0
}

// fitAlignUngapped returns the full DP's exact result when an ungapped
// diagonal certifies; ok is false otherwise (no diagonal beats S_gap, the
// window is shorter than the read, or the scoring is ineligible).
func fitAlignUngapped(read, window []byte, sc Scoring) (fit fitResult, ok bool) {
	m, n := len(read), len(window)
	if m == 0 || n < m || !scoringSigned(sc) {
		return fitResult{}, false
	}
	perfect := m * sc.Match
	penalty := sc.Match - sc.Mismatch
	// A diagonal beats the bar only while its loss below a perfect match
	// stays under budget. The bar starts at S_gap (budget −GapOpen) and
	// rises to each accepted score, so ties keep the smaller diagonal.
	budget := -sc.GapOpen
	best := -1
	for d := 0; d <= n-m; d++ {
		w := window[d : d+m]
		loss := 0
		for i, b := range read {
			if b != w[i] || b == 'N' {
				loss += penalty
				if loss >= budget {
					break
				}
			}
		}
		if loss < budget {
			budget, best = loss, d
		}
	}
	if best < 0 {
		return fitResult{}, false
	}
	return fitResult{Score: perfect - budget, RefStart: best, Cigar: sam.Cigar{{Len: m, Op: 'M'}}}, true
}
