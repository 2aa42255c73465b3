// Package caller implements the Caller stage: a HaplotypeCaller-equivalent
// variant caller (§2.1, Table 2: "calling variants via local de-novo
// assembly of haplotypes in an active region based on paired-HMM algorithm").
// The pipeline is: detect active regions from pileup disagreement, assemble
// candidate haplotypes with a local de Bruijn graph, score every read against
// every haplotype with a log-space pair-HMM, genotype diploid haplotype
// pairs, and emit VCF records. A simple pileup caller is included as the
// baseline comparator.
package caller

import (
	"math"

	"github.com/gpf-go/gpf/internal/genome"
	"github.com/gpf-go/gpf/internal/sam"
)

// Config tunes the caller.
type Config struct {
	K              int     // de Bruijn k-mer size
	MaxHaplotypes  int     // haplotypes kept per region
	RegionPad      int     // reference padding around an active region
	MinBaseQual    int     // bases below this Phred are ignored in detection
	MinActiveFrac  float64 // fraction of disagreeing bases that activates a site
	MinActiveDepth int     // minimum depth for a site to activate
	MinQual        float64 // emit threshold on variant QUAL
	UseGVCF        bool    // also emit reference blocks (gVCF mode)
	// MaxReadsPerRegion caps the reads entering the pair-HMM per active
	// region (GATK-style downsampling): coverage pileups beyond ~10,000x
	// (§4.4) would otherwise make single regions arbitrarily expensive.
	MaxReadsPerRegion int
}

// DefaultConfig returns HaplotypeCaller-like parameters for 100 bp reads.
func DefaultConfig() Config {
	return Config{
		K:                 19,
		MaxHaplotypes:     8,
		RegionPad:         30,
		MinBaseQual:       10,
		MinActiveFrac:     0.15,
		MinActiveDepth:    3,
		MinQual:           20,
		MaxReadsPerRegion: 256,
	}
}

// pileupCell accumulates per-reference-position evidence.
type pileupCell struct {
	depth    int32
	mismatch int32
	indel    int32
}

// contigPileup is the dense pileup of one contig over the reference span
// [lo, hi] that a partition's records touch.
type contigPileup struct {
	lo, hi int
	cells  []pileupCell
}

// usableForPileup reports whether a record contributes to active-region
// detection.
func usableForPileup(r *sam.Record) bool {
	return !r.Unmapped() && !r.Duplicate() && len(r.Seq) != 0
}

// FindActiveRegions scans aligned records for reference positions where
// reads disagree with the reference (mismatches or indel breakpoints) and
// returns padded, merged intervals around them. Evidence accumulates in a
// dense per-contig pileup over the span the records touch: a record adds
// evidence only inside [0, contig length] (an indel may sit just past the
// last base), and positions no record touched (depth 0) never activate.
func FindActiveRegions(records []sam.Record, ref *genome.Reference, cfg Config) []genome.Interval {
	piles := make([]contigPileup, ref.NumContigs())
	for i := range piles {
		piles[i].lo, piles[i].hi = math.MaxInt, -1
	}
	// Pass 1: the span of positions each contig's records can touch.
	for i := range records {
		r := &records[i]
		refSeq := ref.Contig(int(r.RefID))
		if !usableForPileup(r) || refSeq == nil {
			continue
		}
		p := &piles[r.RefID]
		p.lo = min(p.lo, max(int(r.Pos), 0))
		p.hi = max(p.hi, min(int(r.End()), len(refSeq.Seq)))
	}
	for i := range piles {
		if p := &piles[i]; p.lo <= p.hi {
			p.cells = make([]pileupCell, p.hi-p.lo+1)
		}
	}
	// Pass 2: accumulate evidence.
	for i := range records {
		r := &records[i]
		refSeq := ref.Contig(int(r.RefID))
		if !usableForPileup(r) || refSeq == nil {
			continue
		}
		p := &piles[r.RefID]
		bumpIndel := func(pos int) {
			if pos >= 0 && pos <= len(refSeq.Seq) {
				c := &p.cells[pos-p.lo]
				c.depth++
				c.indel++
			}
		}
		readPos, refPos := 0, int(r.Pos)
		for _, op := range r.Cigar {
			switch op.Op {
			case 'M', '=', 'X':
				for k := 0; k < op.Len; k++ {
					rp := refPos + k
					if rp < 0 || rp >= len(refSeq.Seq) || readPos+k >= len(r.Seq) {
						continue
					}
					if int(r.Qual[readPos+k])-33 < cfg.MinBaseQual {
						continue
					}
					c := &p.cells[rp-p.lo]
					c.depth++
					if r.Seq[readPos+k] != refSeq.Seq[rp] {
						c.mismatch++
					}
				}
				readPos += op.Len
				refPos += op.Len
			case 'I':
				bumpIndel(refPos)
				readPos += op.Len
			case 'D', 'N':
				bumpIndel(refPos)
				refPos += op.Len
			case 'S':
				readPos += op.Len
			}
		}
	}
	var ivs []genome.Interval
	for contig := range piles {
		p := &piles[contig]
		contigLen := ref.Contig(contig).Len()
		for k := range p.cells {
			c := &p.cells[k]
			if c.depth == 0 || int(c.depth) < cfg.MinActiveDepth {
				continue
			}
			frac := float64(c.mismatch+c.indel*2) / float64(c.depth)
			if frac < cfg.MinActiveFrac {
				continue
			}
			pos := p.lo + k
			ivs = append(ivs, genome.Interval{
				Contig: contig,
				Start:  max(pos-cfg.RegionPad, 0),
				End:    min(pos+cfg.RegionPad, contigLen),
			})
		}
	}
	return genome.MergeIntervals(ivs)
}
