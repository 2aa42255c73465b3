package cleaner

import (
	"fmt"
	"math"

	"github.com/gpf-go/gpf/internal/genome"
	"github.com/gpf-go/gpf/internal/sam"
)

// Base quality score recalibration (GATK BaseRecalibrator equivalent).
// Sequencers report miscalibrated quality scores; BQSR counts observed
// mismatches against the reference — excluding known variant sites — binned
// by covariates (reported quality, machine cycle, dinucleotide context) and
// rewrites each base's quality to the empirically observed error rate.
// The two-pass structure matches the paper: a distributed counting pass
// reduced to the driver (the serial Collect of §5.2.2, where the mask table
// broadcast throttles parallel efficiency), then a parallel apply pass.

// KnownSites reports whether (contig, pos) is a known variant site that must
// be excluded from error counting (the dbsnp_138 role in §5.1).
type KnownSites func(contig, pos int) bool

// covariate bins.
const (
	maxQual    = 64
	maxCycle   = 512
	numContext = 16 // previous base × current base, 2 bits each
)

// cycleBin clamps a machine cycle into table range.
func cycleBin(cycle int) int {
	if cycle < 0 {
		cycle = 0
	}
	if cycle >= maxCycle {
		cycle = maxCycle - 1
	}
	return cycle
}

// contextBin returns the dinucleotide context bin of (prev, cur), or -1 when
// either base is not ACGT.
func contextBin(prev, cur byte) int {
	p, c := genome.BaseCode(prev), genome.BaseCode(cur)
	if p < 0 || c < 0 {
		return -1
	}
	return p*4 + c
}

// counter accumulates (observations, errors) for one covariate bin.
type counter struct {
	Obs  int64
	Errs int64
}

// empiricalQual converts a counter into a Phred-scaled empirical quality
// with a Laplace-style prior (GATK uses a similar smoothing).
func (c counter) empiricalQual() float64 {
	p := (float64(c.Errs) + 1) / (float64(c.Obs) + 2)
	q := -10 * math.Log10(p)
	if q < 1 {
		q = 1
	}
	if q > 60 {
		q = 60
	}
	return q
}

// RecalTable is the covariate table built by pass 1. Tables from different
// partitions merge associatively, so the engine can reduce them.
type RecalTable struct {
	Global  counter
	ByQual  [maxQual]counter
	ByCycle [maxCycle]counter
	ByCtx   [numContext]counter
}

// Merge folds other into t (associative, for the engine reduce).
func (t *RecalTable) Merge(other *RecalTable) *RecalTable {
	if t == nil {
		return other
	}
	if other == nil {
		return t
	}
	t.Global.Obs += other.Global.Obs
	t.Global.Errs += other.Global.Errs
	for i := range t.ByQual {
		t.ByQual[i].Obs += other.ByQual[i].Obs
		t.ByQual[i].Errs += other.ByQual[i].Errs
	}
	for i := range t.ByCycle {
		t.ByCycle[i].Obs += other.ByCycle[i].Obs
		t.ByCycle[i].Errs += other.ByCycle[i].Errs
	}
	for i := range t.ByCtx {
		t.ByCtx[i].Obs += other.ByCtx[i].Obs
		t.ByCtx[i].Errs += other.ByCtx[i].Errs
	}
	return t
}

// SizeBytes estimates the serialized table size (for broadcast accounting).
func (t *RecalTable) SizeBytes() int64 {
	return int64(16 * (1 + maxQual + maxCycle + numContext))
}

// forEachAlignedBase walks a record's CIGAR, invoking fn for every M/=/X
// base with the read offset and the reference position it covers.
func forEachAlignedBase(r *sam.Record, fn func(readPos, refPos int)) {
	readPos, refPos := 0, int(r.Pos)
	for _, op := range r.Cigar {
		switch op.Op {
		case 'M', '=', 'X':
			for k := 0; k < op.Len; k++ {
				if readPos+k < len(r.Seq) {
					fn(readPos+k, refPos+k)
				}
			}
			readPos += op.Len
			refPos += op.Len
		case 'I', 'S':
			readPos += op.Len
		case 'D', 'N':
			refPos += op.Len
		}
	}
}

// BuildRecalTable runs BQSR pass 1 over one partition: count observations
// and mismatches per covariate, skipping duplicates, unmapped reads, known
// variant sites, N bases and low-quality bases.
func BuildRecalTable(records []sam.Record, ref *genome.Reference, known KnownSites) *RecalTable {
	t := &RecalTable{}
	for i := range records {
		r := &records[i]
		if r.Unmapped() || r.Duplicate() || len(r.Seq) == 0 || len(r.Qual) != len(r.Seq) {
			continue
		}
		contig := int(r.RefID)
		refSeq := ref.Contig(contig)
		if refSeq == nil {
			continue
		}
		forEachAlignedBase(r, func(readPos, refPos int) {
			if refPos < 0 || refPos >= len(refSeq.Seq) {
				return
			}
			if known != nil && known(contig, refPos) {
				return
			}
			base := r.Seq[readPos]
			refBase := refSeq.Seq[refPos]
			if base == 'N' || refBase == 'N' {
				return
			}
			q := int(r.Qual[readPos]) - 33
			if q < 2 {
				return
			}
			if q >= maxQual {
				q = maxQual - 1
			}
			isErr := int64(0)
			if base != refBase {
				isErr = 1
			}
			t.Global.Obs++
			t.Global.Errs += isErr
			t.ByQual[q].Obs++
			t.ByQual[q].Errs += isErr
			cb := cycleBin(readPos)
			t.ByCycle[cb].Obs++
			t.ByCycle[cb].Errs += isErr
			var prev byte = 'N'
			if readPos > 0 {
				prev = r.Seq[readPos-1]
			}
			if ctx := contextBin(prev, base); ctx >= 0 {
				t.ByCtx[ctx].Obs++
				t.ByCtx[ctx].Errs += isErr
			}
		})
	}
	return t
}

// recalTables is a RecalTable's apply form: the GATK delta decomposition
// (empirical(Q) shifted by the cycle and context deltas relative to the
// global empirical quality) with every empiricalQual evaluated once per bin
// instead of once per base. Bins with no observations carry a zero delta,
// and out + 0 == out, so a base's sum is bit-identical to adding only the
// observed deltas.
type recalTables struct {
	byQual     [256]float64            // indexed by the raw Phred+33 byte
	cycleDelta [maxCycle]float64       // indexed by cycleBin
	ctxDelta   [numContext + 1]float64 // numContext: a non-ACGT context
}

func newRecalTables(t *RecalTable) *recalTables {
	rt := &recalTables{}
	global := t.Global.empiricalQual()
	for b := range rt.byQual {
		q := min(max(b-33, 0), maxQual-1)
		rt.byQual[b] = t.ByQual[q].empiricalQual()
	}
	for i, c := range t.ByCycle {
		if c.Obs > 0 {
			rt.cycleDelta[i] = c.empiricalQual() - global
		}
	}
	for i, c := range t.ByCtx {
		if c.Obs > 0 {
			rt.ctxDelta[i] = c.empiricalQual() - global
		}
	}
	return rt
}

// ApplyRecalibration runs BQSR pass 2 over one partition, rewriting base
// qualities in place using the merged table. The new quality strings share
// one allocation per partition.
func ApplyRecalibration(records []sam.Record, t *RecalTable) error {
	if t == nil {
		return fmt.Errorf("cleaner: nil recalibration table")
	}
	n := 0
	for i := range records {
		if r := &records[i]; !r.Unmapped() && len(r.Qual) == len(r.Seq) {
			n += len(r.Qual)
		}
	}
	slab := make([]byte, n)
	var rt *recalTables
	if t.Global.Obs > 0 {
		rt = newRecalTables(t)
	}
	for i := range records {
		r := &records[i]
		if r.Unmapped() || len(r.Qual) != len(r.Seq) {
			continue
		}
		newQual := slab[:len(r.Qual):len(r.Qual)]
		slab = slab[len(r.Qual):]
		if rt == nil {
			// An empty table leaves every reported quality as it is.
			copy(newQual, r.Qual)
		} else {
			rt.apply(newQual, r.Qual, r.Seq)
		}
		r.Qual = newQual
	}
	return nil
}

// apply writes the recalibrated Phred+33 qualities of one read into dst.
func (rt *recalTables) apply(dst, qual, seq []byte) {
	var prev byte = 'N' // the base before the read
	for j, qb := range qual {
		ctx := contextBin(prev, seq[j])
		if ctx < 0 {
			ctx = numContext
		}
		prev = seq[j]
		out := rt.byQual[qb]
		out += rt.cycleDelta[cycleBin(j)]
		out += rt.ctxDelta[ctx]
		qi := int(out + 0.5)
		if qi < 2 {
			qi = 2
		}
		if qi > 60 {
			qi = 60
		}
		dst[j] = byte(qi + 33)
	}
}
