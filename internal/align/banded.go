package align

import (
	"github.com/gpf-go/gpf/internal/bufpool"
	"github.com/gpf-go/gpf/internal/sam"
)

// Banded fit alignment (see DESIGN.md, "Hot kernels"). The full Gotoh DP
// fills (m+1)×(n+1) cells, but for realignment and haplotype fitting the
// read and window are close in length and the optimal path hugs the main
// diagonal: almost all of that work scores paths with absurd gap counts.
// The banded kernel fills only diagonals d = j−i in [lo, hi], where
//
//	lo = min(0, n−m) − bandSlack
//	hi = max(0, n−m) + bandSlack
//
// i.e. every start offset the length difference allows, plus bandSlack
// diagonals of indel headroom on each side.
//
// Soundness certificate — why the result is exactly the full DP's, CIGAR
// included, whenever ok is returned:
//
// A path's diagonal starts at j_start ≥ 0, ends at j_end − m ≤ n−m, and only
// insertions move it down. So any path that ever touches a diagonal below lo
// or above hi must contain at least
//
//	G = bandSlack + 1 + max(0, m−n)
//
// insertions (to dip below lo from a start ≥ 0, or to return from above hi
// to an end ≤ n−m). Such a path matches at most m−G read bases and pays for
// G insertions, so its score is at most
//
//	S_out = (m−G)·Match + bestGapCost(G)
//
// (deletions and mismatches only lower it, given the sign constraints
// checked by bandedEligible). If the banded optimum strictly beats S_out,
// every optimal path lies inside the band; the banded matrix then agrees
// with the full matrix along every optimal path (a traceback prefix achieves
// its cell's value, and in-band values never exceed full values), so the
// deterministic traceback — same tie-break order, same end-cell scan — picks
// the identical path. Any discrepancy would imply an out-of-band optimum,
// contradicting the certificate. If G > m an out-of-band path is outright
// impossible (insertions consume read bases). When the certificate fails the
// kernel reports !ok and the caller re-runs the full DP.
//
// The property test TestKernelFitAlignBandedEquivalence checks
// score+RefStart+CIGAR equality against the full DP on random and
// adversarial indel-heavy inputs.

// bandSlack is the indel headroom on each side of the diagonal band. 16
// covers every indel the assembler or realigner produces at default configs
// while keeping the band ~33 diagonals wide.
const bandSlack = 16

// bandedEligible reports whether the banded kernel applies: the certificate
// arithmetic requires the usual score-sign shape, and the band must actually
// be narrower than the full matrix rows for the work to be worth it.
func bandedEligible(m, n int, sc Scoring) bool {
	if m == 0 || n == 0 {
		return false
	}
	if !scoringSigned(sc) {
		return false
	}
	lo, hi := bandBounds(m, n)
	return hi-lo+1 < n+1
}

// bandBounds returns the band [lo, hi] over diagonals d = j−i, clipped to
// the reachable range [−m, n].
func bandBounds(m, n int) (lo, hi int) {
	lo, hi = -bandSlack, bandSlack
	if n-m < 0 {
		lo = n - m - bandSlack
	} else if n-m > 0 {
		hi = n - m + bandSlack
	}
	if lo < -m {
		lo = -m
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// fitAlignBanded runs the banded Gotoh DP. ok is false when the banded
// optimum cannot certify that no out-of-band path beats it; the caller must
// then fall back to fitAlignFull. Requires bandedEligible(m, n, sc).
func fitAlignBanded(read, window []byte, sc Scoring) (fit fitResult, ok bool) {
	m, n := len(read), len(window)
	lo, hi := bandBounds(m, n)
	// Diagonal-indexed storage: cell (i, j) lives at row i, slot
	// k = (j−i) − lo + 1. The diagonal predecessor (i−1, j−1) keeps the same
	// k; the insertion predecessor (i−1, j) is k+1; the deletion predecessor
	// (i, j−1) is k−1. Slots 0 and W+1 are pads held at negInf so band-edge
	// cells read −∞ neighbors without branching.
	W := hi - lo + 1
	stride := W + 2
	size := (m + 1) * stride
	scores := bufpool.GetI32(3 * size)
	ptrs := bufpool.GetU8(3 * size)
	defer bufpool.PutI32(scores)
	defer bufpool.PutU8(ptrs)
	M, X, Y := scores[0:size], scores[size:2*size], scores[2*size:3*size]
	ptrM, ptrX, ptrY := ptrs[0:size], ptrs[size:2*size], ptrs[2*size:3*size]
	for i := range scores {
		scores[i] = negInf
	}
	clear(ptrs)
	const (
		fromM = 1
		fromX = 2
		fromY = 3
	)

	// Row 0: free leading reference flank on every in-band start column.
	for d := max(lo, 0); d <= hi; d++ {
		M[d-lo+1] = 0
	}
	// Column 0: leading insertions, as far down as the band reaches.
	for i := 1; i <= m && -i >= lo; i++ {
		k := i*stride + (-i - lo + 1)
		X[k] = int32(sc.GapOpen + (i-1)*sc.GapExtend)
		ptrX[k] = fromX
	}

	for i := 1; i <= m; i++ {
		row := i * stride
		prow := row - stride
		dStart := max(lo, 1-i) // j = i+d ≥ 1
		dEnd := min(hi, n-i)   // j ≤ n
		rb := read[i-1]
		for d := dStart; d <= dEnd; d++ {
			k := d - lo + 1
			j := i + d
			sub := sc.Mismatch
			if rb == window[j-1] && rb != 'N' {
				sub = sc.Match
			}
			// M: diagonal move from best of three.
			dM, dX, dY := M[prow+k], X[prow+k], Y[prow+k]
			best, from := dM, uint8(fromM)
			if dX > best {
				best, from = dX, fromX
			}
			if dY > best {
				best, from = dY, fromY
			}
			M[row+k] = best + int32(sub)
			ptrM[row+k] = from

			// X: consume read base (insertion relative to reference).
			openX := M[prow+k+1] + int32(sc.GapOpen)
			extX := X[prow+k+1] + int32(sc.GapExtend)
			if openX >= extX {
				X[row+k] = openX
				ptrX[row+k] = fromM
			} else {
				X[row+k] = extX
				ptrX[row+k] = fromX
			}

			// Y: consume window base (deletion).
			openY := M[row+k-1] + int32(sc.GapOpen)
			extY := Y[row+k-1] + int32(sc.GapExtend)
			if openY >= extY {
				Y[row+k] = openY
				ptrY[row+k] = fromM
			} else {
				Y[row+k] = extY
				ptrY[row+k] = fromY
			}
		}
	}

	// Best end on the last row, in the full DP's scan order: columns
	// ascending (d ascending here), M before X per column, strict >.
	bestScore, bestK, bestLayer := int32(negInf), 0, uint8(fromM)
	mrow := m * stride
	for d := lo; d <= min(hi, n-m); d++ {
		k := d - lo + 1
		if M[mrow+k] > bestScore {
			bestScore, bestK, bestLayer = M[mrow+k], k, fromM
		}
		if X[mrow+k] > bestScore {
			bestScore, bestK, bestLayer = X[mrow+k], k, fromX
		}
	}

	// Certificate: does the banded optimum rule out every out-of-band path?
	G := bandSlack + 1 + max(0, m-n)
	if G <= m {
		gapBest := sc.GapOpen + (G-1)*sc.GapExtend
		if g := G * sc.GapOpen; g > gapBest {
			gapBest = g
		}
		sOut := (m-G)*sc.Match + gapBest
		if int(bestScore) <= sOut {
			return fitResult{}, false
		}
	}

	// Traceback, identical to the full DP's but stepping in (row, slot)
	// space: M keeps k, I moves to k+1 in the previous row, D moves to k−1.
	var rev sam.Cigar
	i, k, layer := m, bestK, bestLayer
	appendOp := func(op byte) {
		if len(rev) > 0 && rev[len(rev)-1].Op == op {
			rev[len(rev)-1].Len++
			return
		}
		rev = append(rev, sam.CigarOp{Len: 1, Op: op})
	}
	for i > 0 {
		switch layer {
		case fromM:
			appendOp('M')
			layer = ptrM[i*stride+k]
			i--
		case fromX:
			appendOp('I')
			layer = ptrX[i*stride+k]
			i--
			k++
		case fromY:
			appendOp('D')
			layer = ptrY[i*stride+k]
			k--
		}
	}
	cigar := make(sam.Cigar, len(rev))
	for c := range rev {
		cigar[c] = rev[len(rev)-1-c]
	}
	// i = 0, so the start column is just the slot's diagonal.
	return fitResult{Score: int(bestScore), RefStart: k - 1 + lo, Cigar: cigar.Normalize()}, true
}
