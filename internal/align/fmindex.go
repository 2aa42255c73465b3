package align

import (
	"fmt"
	"math/bits"

	"github.com/gpf-go/gpf/internal/genome"
)

// Alphabet for the FM-index: 0 is the sentinel, 1..4 are A,C,G,T.
const (
	sentinel   = 0
	numSymbols = 5
	// blockRows is the number of BWT rows per rank block: one block holds
	// the occurrence counts before its first row and the rows' 2-bit codes
	// as two 64-bit planes.
	blockRows = 64
	// saSampleRate is the suffix-array sampling stride for locate queries.
	saSampleRate = 4
)

// rankBlock covers BWT rows [64b, 64b+64): occ[k] counts code k (A..T =
// 0..3) in the rows before the block, bits[0] and bits[1] hold the low and
// high bit of each row's code (row r at bit r%64). 32 bytes per 64 rows.
type rankBlock struct {
	occ  [4]uint32
	bits [2]uint64
}

// FMIndex is a BWT-based full-text index over the concatenated reference,
// supporting backward search (exact-match intervals) and locate.
//
// The BWT is 2-bit packed in the BWA layout: interleaved rankBlocks, so a
// rank query is one block read plus a masked popcount. The one sentinel row
// (primary) is packed as A and corrected for in rank and lf.
type FMIndex struct {
	ref *genome.Reference

	blocks  []rankBlock
	primary int32 // BWT row holding the sentinel
	// counts[c] = number of symbols < c in the text (the C array).
	counts [numSymbols + 1]int32
	// sa holds sampled suffix array entries: saSample[i] = SA[i*saSampleRate].
	saSample []int32
	n        int // text length including sentinel

	// contig boundary offsets in the concatenated text: contig i spans
	// [starts[i], starts[i]+len).
	starts []int64
}

// code converts a base to the index alphabet, mapping non-ACGT to 'A'
// (index-side normalization; alignment scoring against the true reference
// still penalizes such positions).
func code(b byte) byte {
	c := genome.BaseCode(b)
	if c < 0 {
		c = 0
	}
	return byte(c + 1)
}

// searchCode maps a pattern byte to the index alphabet: uppercase A/C/G/T
// to 1..4, every other byte (N, lowercase, junk) to 0, which never matches.
var searchCode = [256]byte{'A': 1, 'C': 2, 'G': 3, 'T': 4}

// indexText concatenates the reference contigs into coded text ending in
// the sentinel, returning it with each contig's start offset.
func indexText(ref *genome.Reference) (text []byte, starts []int64) {
	var total int64
	for i := range ref.Contigs {
		total += int64(ref.Contigs[i].Len())
	}
	text = make([]byte, total+1)
	starts = make([]int64, ref.NumContigs())
	var off int64
	for i := range ref.Contigs {
		starts[i] = off
		for _, b := range ref.Contigs[i].Seq {
			text[off] = code(b)
			off++
		}
	}
	text[off] = sentinel
	return text, starts
}

// BuildFMIndex indexes the reference genome (forward strand; reads are
// searched in both orientations by the aligner).
func BuildFMIndex(ref *genome.Reference) (*FMIndex, error) {
	text, starts := indexText(ref)
	if len(text) == 1 {
		return nil, fmt.Errorf("align: empty reference")
	}
	sa := buildSuffixArray(text)
	n := len(text)
	idx := &FMIndex{ref: ref, n: n, starts: starts}

	// Packed BWT and sampled SA. Row i's BWT symbol precedes suffix sa[i];
	// the row whose suffix is the whole text holds the sentinel.
	idx.blocks = make([]rankBlock, n/blockRows+1)
	idx.saSample = make([]int32, (n+saSampleRate-1)/saSampleRate)
	for i, p := range sa {
		var c byte
		if p == 0 {
			idx.primary = int32(i)
		} else {
			c = text[p-1] - 1
		}
		b := &idx.blocks[i/blockRows]
		b.bits[0] |= uint64(c&1) << (i % blockRows)
		b.bits[1] |= uint64(c>>1) << (i % blockRows)
		if i%saSampleRate == 0 {
			idx.saSample[i/saSampleRate] = p
		}
	}

	// C array.
	var freq [numSymbols]int32
	for _, c := range text {
		freq[c]++
	}
	var cum int32
	for c := 0; c < numSymbols; c++ {
		idx.counts[c] = cum
		cum += freq[c]
	}
	idx.counts[numSymbols] = cum

	// Block occurrence counts, over the packed codes (the sentinel counts as
	// A here; rank subtracts it). There are n/blockRows+1 blocks so that
	// rank(c, n) has a block to read even when n is a multiple of 64.
	var running [4]uint32
	for b := range idx.blocks {
		idx.blocks[b].occ = running
		rows := min(blockRows, n-b*blockRows)
		for k := range running {
			running[k] += uint32(bits.OnesCount64(codeMask(&idx.blocks[b], byte(k)) & lowMask(rows)))
		}
	}
	return idx, nil
}

// lowMask returns a mask of the low r bits, 0 <= r <= 64.
func lowMask(r int) uint64 {
	if r >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(r) - 1
}

// codeMask returns the rows of block b whose 2-bit code is k.
func codeMask(b *rankBlock, k byte) uint64 {
	// XOR with all-ones where k's bit is 0 turns "bit equals k's bit" into 1.
	lo := b.bits[0] ^ (uint64(k&1) - 1)
	hi := b.bits[1] ^ (uint64(k>>1) - 1)
	return lo & hi
}

// rank returns the number of occurrences of symbol c (1..4) in BWT rows
// [0, i).
func (x *FMIndex) rank(c byte, i int32) int32 {
	b := &x.blocks[i/blockRows]
	r := int32(b.occ[c-1]) + int32(bits.OnesCount64(codeMask(b, c-1)&lowMask(int(i%blockRows))))
	if c == 1 && x.primary < i {
		r-- // the sentinel is packed as A
	}
	return r
}

// lf is the last-to-first mapping of BWT row i.
func (x *FMIndex) lf(i int32) int32 {
	if i == x.primary {
		return 0 // the sentinel sorts first
	}
	b := &x.blocks[i/blockRows]
	s := uint(i % blockRows)
	c := byte(b.bits[0]>>s&1|(b.bits[1]>>s&1)<<1) + 1
	return x.counts[c] + x.rank(c, i)
}

// Interval is a BWT row range [Lo, Hi) matching some query suffix.
type Interval struct {
	Lo, Hi int32
}

// Size returns the number of matches in the interval.
func (iv Interval) Size() int { return int(iv.Hi - iv.Lo) }

// BackwardSearch returns the BWT interval of exact occurrences of pattern.
// Any byte other than uppercase A/C/G/T (N, lowercase, junk) yields the
// empty interval, so callers need no separate validation pass.
func (x *FMIndex) BackwardSearch(pattern []byte) Interval {
	lo, hi := int32(0), int32(x.n)
	for i := len(pattern) - 1; i >= 0; i-- {
		c := searchCode[pattern[i]]
		if c == 0 {
			return Interval{}
		}
		lo = x.counts[c] + x.rank(c, lo)
		hi = x.counts[c] + x.rank(c, hi)
		if lo >= hi {
			return Interval{}
		}
	}
	return Interval{Lo: lo, Hi: hi}
}

// Locate resolves up to maxHits text positions for an interval by LF-walking
// to sampled suffix-array rows.
func (x *FMIndex) Locate(iv Interval, maxHits int) []int64 {
	var out []int64
	for r := iv.Lo; r < iv.Hi && len(out) < maxHits; r++ {
		row := r
		steps := int32(0)
		for row%saSampleRate != 0 {
			row = x.lf(row)
			steps++
		}
		pos := int64(x.saSample[row/saSampleRate]) + int64(steps)
		if pos >= int64(x.n) {
			pos -= int64(x.n)
		}
		out = append(out, pos)
	}
	return out
}

// Resolve converts a concatenated-text offset into (contig, position). The
// second result is false for offsets past the last contig (the sentinel).
func (x *FMIndex) Resolve(off int64) (genome.Position, bool) {
	if off >= int64(x.n-1) || off < 0 {
		return genome.Position{}, false
	}
	// Binary search over starts.
	lo, hi := 0, len(x.starts)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if x.starts[mid] <= off {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	c := lo
	pos := int(off - x.starts[c])
	if pos >= x.ref.Contigs[c].Len() {
		return genome.Position{}, false
	}
	return genome.Position{Contig: c, Pos: pos}, true
}

// Reference returns the indexed reference.
func (x *FMIndex) Reference() *genome.Reference { return x.ref }
