package caller

import (
	"github.com/gpf-go/gpf/internal/genome"
	"github.com/gpf-go/gpf/internal/sam"
)

// findActiveRegionsMap is the map-keyed pileup FindActiveRegions replaced:
// the equivalence oracle for the dense per-contig pileup.
func findActiveRegionsMap(records []sam.Record, ref *genome.Reference, cfg Config) []genome.Interval {
	cells := map[genome.Position]*pileupCell{}
	bump := func(contig, pos int) *pileupCell {
		key := genome.Position{Contig: contig, Pos: pos}
		c := cells[key]
		if c == nil {
			c = &pileupCell{}
			cells[key] = c
		}
		return c
	}
	for i := range records {
		r := &records[i]
		if r.Unmapped() || r.Duplicate() || len(r.Seq) == 0 {
			continue
		}
		contig := int(r.RefID)
		refSeq := ref.Contig(contig)
		if refSeq == nil {
			continue
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
					c := bump(contig, rp)
					c.depth++
					if r.Seq[readPos+k] != refSeq.Seq[rp] {
						c.mismatch++
					}
				}
				readPos += op.Len
				refPos += op.Len
			case 'I':
				c := bump(contig, refPos)
				c.depth++
				c.indel++
				readPos += op.Len
			case 'D', 'N':
				c := bump(contig, refPos)
				c.depth++
				c.indel++
				refPos += op.Len
			case 'S':
				readPos += op.Len
			}
		}
	}
	var ivs []genome.Interval
	for pos, c := range cells {
		if int(c.depth) < cfg.MinActiveDepth {
			continue
		}
		frac := float64(c.mismatch+c.indel*2) / float64(c.depth)
		if frac < cfg.MinActiveFrac {
			continue
		}
		start := pos.Pos - cfg.RegionPad
		if start < 0 {
			start = 0
		}
		end := pos.Pos + cfg.RegionPad
		if contig := ref.Contig(pos.Contig); contig != nil && end > contig.Len() {
			end = contig.Len()
		}
		ivs = append(ivs, genome.Interval{Contig: pos.Contig, Start: start, End: end})
	}
	return genome.MergeIntervals(ivs)
}
