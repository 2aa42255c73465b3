package caller

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/gpf-go/gpf/internal/genome"
	"github.com/gpf-go/gpf/internal/sam"
)

// randomPileupRecords builds aligned records over ref's first two contigs
// (the third stays uncovered): reads that start or end with an insertion or
// deletion, soft clips, N skips, mismatches, low base qualities, duplicate
// and unmapped flags, and reads that end exactly at the contig end, some
// with a trailing insertion there.
func randomPileupRecords(rng *rand.Rand, ref *genome.Reference, n int) []sam.Record {
	var recs []sam.Record
	for len(recs) < n {
		contig := rng.Intn(2)
		seq := ref.Contig(contig).Seq
		var cigar sam.Cigar
		add := func(op byte, l int) { cigar = append(cigar, sam.CigarOp{Op: op, Len: l}) }
		switch rng.Intn(5) {
		case 0:
			add('I', 1+rng.Intn(3))
		case 1:
			add('D', 1+rng.Intn(3))
		case 2:
			add('S', 1+rng.Intn(4))
		}
		for seg := 0; seg <= rng.Intn(3); seg++ {
			if seg > 0 {
				add("IDN"[rng.Intn(3)], 1+rng.Intn(4))
			}
			add('M', 5+rng.Intn(25))
		}
		switch rng.Intn(4) {
		case 0:
			add('I', 1+rng.Intn(3))
		case 1:
			add('D', 1+rng.Intn(3))
		}
		refLen, qLen := cigar.RefLen(), cigar.QueryLen()
		if refLen > len(seq) {
			continue
		}
		pos := rng.Intn(len(seq) - refLen + 1)
		if rng.Intn(8) == 0 {
			pos = len(seq) - refLen // ends at the contig end
		}
		r := sam.Record{RefID: int32(contig), Pos: int32(pos), Cigar: cigar}
		r.Seq = make([]byte, qLen)
		r.Qual = make([]byte, qLen)
		readPos, refPos := 0, pos
		for _, op := range cigar {
			switch op.Op {
			case 'M':
				copy(r.Seq[readPos:], seq[refPos:refPos+op.Len])
				readPos += op.Len
				refPos += op.Len
			case 'I', 'S':
				for k := 0; k < op.Len; k++ {
					r.Seq[readPos+k] = "ACGT"[rng.Intn(4)]
				}
				readPos += op.Len
			case 'D', 'N':
				refPos += op.Len
			}
		}
		for k := range r.Seq {
			if rng.Intn(6) == 0 {
				r.Seq[k] = "ACGTN"[rng.Intn(5)]
			}
			r.Qual[k] = byte(33 + rng.Intn(41))
		}
		switch rng.Intn(12) {
		case 0:
			r.Flag |= sam.FlagDuplicate
		case 1:
			r.Flag |= sam.FlagUnmapped
		}
		recs = append(recs, r)
	}
	return recs
}

// TestKernelFindActiveRegionsDense checks the dense per-contig pileup
// against the map-keyed oracle: records on two contigs in one slice, indels
// at read ends, reads ending at the contig end (a trailing insertion sits
// one past the last base), MinActiveDepth 0 and 1 (where an untouched
// position must not activate), and pads wider than a contig.
func TestKernelFindActiveRegionsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ref := genome.NewReference([]genome.Contig{
		{Name: "c0", Seq: randomBases(rng, 400)},
		{Name: "c1", Seq: randomBases(rng, 150)},
		{Name: "c2", Seq: randomBases(rng, 300)},
	})
	for c := 0; c < 60; c++ {
		recs := randomPileupRecords(rng, ref, 1+rng.Intn(60))
		cfg := DefaultConfig()
		cfg.MinActiveDepth = c % 4 // 0, 1, 2, 3
		cfg.MinActiveFrac = []float64{0, 0.15, 0.5}[c%3]
		cfg.RegionPad = []int{0, 5, 30, 500}[c%4]
		got := FindActiveRegions(recs, ref, cfg)
		want := findActiveRegionsMap(recs, ref, cfg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d (%+v): dense %v, map oracle %v", c, cfg, got, want)
		}
	}
	cfg := DefaultConfig()
	if got := FindActiveRegions(nil, ref, cfg); got != nil {
		t.Fatalf("no records: %v", got)
	}
}

// TestFindActiveRegionsClipsToContig: indel evidence past the contig end
// (a malformed record hanging off it) is dropped, so every region lies
// inside its contig and CallVariants can slice its window.
func TestFindActiveRegionsClipsToContig(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ref := genome.NewReference([]genome.Contig{{Name: "c0", Seq: randomBases(rng, 100)}})
	var recs []sam.Record
	for i := 0; i < 4; i++ {
		cigar := sam.Cigar{{Op: 'M', Len: 10}, {Op: 'D', Len: 20}, {Op: 'I', Len: 2}}
		r := sam.Record{Pos: 90, Cigar: cigar, Seq: append([]byte(nil), ref.Contig(0).Seq[90:]...)}
		r.Seq = append(r.Seq, "AC"...)
		r.Qual = []byte(fmt.Sprintf("%012d", 0))
		recs = append(recs, r)
	}
	cfg := DefaultConfig()
	cfg.RegionPad = 2
	for _, iv := range FindActiveRegions(recs, ref, cfg) {
		if iv.Start < 0 || iv.Start > iv.End || iv.End > ref.Contig(0).Len() {
			t.Fatalf("region %+v outside contig of length %d", iv, ref.Contig(0).Len())
		}
	}
	CallVariants(recs, ref, cfg)
}
