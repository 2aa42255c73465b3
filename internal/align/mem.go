package align

import (
	"sort"

	"github.com/gpf-go/gpf/internal/fastq"
	"github.com/gpf-go/gpf/internal/genome"
	"github.com/gpf-go/gpf/internal/sam"
)

// Config tunes the seed-and-extend aligner.
type Config struct {
	SeedLen       int     // exact-match seed length (default 19, as BWA-MEM)
	SeedStride    int     // distance between seed start positions (default 10)
	MaxSeedHits   int     // seeds with more hits are skipped as repetitive
	MaxCandidates int     // candidate loci extended per strand
	Flank         int     // reference window flank around a candidate locus
	MinScoreFrac  float64 // minimum score as a fraction of read length
	Scoring       Scoring
	// Pairing parameters.
	MinInsert, MaxInsert int
	ProperPairBonus      int
}

// DefaultConfig returns BWA-MEM-like parameters for 100 bp paired reads.
func DefaultConfig() Config {
	return Config{
		SeedLen:         19,
		SeedStride:      10,
		MaxSeedHits:     64,
		MaxCandidates:   8,
		Flank:           16,
		MinScoreFrac:    0.5,
		Scoring:         DefaultScoring(),
		MinInsert:       50,
		MaxInsert:       1000,
		ProperPairBonus: 20,
	}
}

// Alignment is one placement of a read.
type Alignment struct {
	Pos     genome.Position
	Reverse bool
	Score   int
	MapQ    uint8
	Cigar   sam.Cigar
	// Seq and Qual are in reference orientation (reverse-complemented for
	// reverse-strand alignments), as SAM requires.
	Seq, Qual []byte
}

// Aligner maps reads against an FM-indexed reference.
type Aligner struct {
	idx *FMIndex
	cfg Config
}

// NewAligner creates an aligner over idx with cfg (zero fields take
// defaults).
func NewAligner(idx *FMIndex, cfg Config) *Aligner {
	def := DefaultConfig()
	if cfg.SeedLen <= 0 {
		cfg.SeedLen = def.SeedLen
	}
	if cfg.SeedStride <= 0 {
		cfg.SeedStride = def.SeedStride
	}
	if cfg.MaxSeedHits <= 0 {
		cfg.MaxSeedHits = def.MaxSeedHits
	}
	if cfg.MaxCandidates <= 0 {
		cfg.MaxCandidates = def.MaxCandidates
	}
	if cfg.Flank <= 0 {
		cfg.Flank = def.Flank
	}
	if cfg.MinScoreFrac <= 0 {
		cfg.MinScoreFrac = def.MinScoreFrac
	}
	if cfg.Scoring == (Scoring{}) {
		cfg.Scoring = def.Scoring
	}
	if cfg.MaxInsert <= 0 {
		cfg.MinInsert, cfg.MaxInsert = def.MinInsert, def.MaxInsert
	}
	if cfg.ProperPairBonus <= 0 {
		cfg.ProperPairBonus = def.ProperPairBonus
	}
	return &Aligner{idx: idx, cfg: cfg}
}

// candidate is a clustered seed locus in concatenated-text coordinates.
type candidate struct {
	start int64
	votes int
}

// seedCandidates finds candidate alignment start offsets for seq via exact
// seed matches.
func (a *Aligner) seedCandidates(seq []byte) []candidate {
	var positions []int64
	for off := 0; off+a.cfg.SeedLen <= len(seq); off += a.cfg.SeedStride {
		// BackwardSearch rejects seeds holding anything but A/C/G/T.
		iv := a.idx.BackwardSearch(seq[off : off+a.cfg.SeedLen])
		if iv.Size() == 0 || iv.Size() > a.cfg.MaxSeedHits {
			continue
		}
		for _, hit := range a.idx.Locate(iv, a.cfg.MaxSeedHits) {
			positions = append(positions, hit-int64(off))
		}
	}
	if len(positions) == 0 {
		return nil
	}
	sort.Slice(positions, func(i, j int) bool { return positions[i] < positions[j] })
	// Cluster within a small tolerance (indels shift candidate starts).
	const tol = 12
	var out []candidate
	cur := candidate{start: positions[0], votes: 1}
	for _, p := range positions[1:] {
		if p-cur.start <= tol {
			cur.votes++
			continue
		}
		out = append(out, cur)
		cur = candidate{start: p, votes: 1}
	}
	out = append(out, cur)
	sort.Slice(out, func(i, j int) bool { return out[i].votes > out[j].votes })
	if len(out) > a.cfg.MaxCandidates {
		out = out[:a.cfg.MaxCandidates]
	}
	return out
}

// candidateWindow returns the reference window a read of length m is fitted
// into at candidate c (the seeded locus plus Flank on each side, clipped to
// the contig) and the position of the window's first base. ok is false when
// the candidate does not resolve to a contig (it begins before contig 0 or
// inside the sentinel) or the clipped window is under half the read.
func (a *Aligner) candidateWindow(c candidate, m int) (start genome.Position, window []byte, ok bool) {
	pos, ok := a.idx.Resolve(c.start)
	if !ok {
		return genome.Position{}, nil, false
	}
	winStart := pos.Pos - a.cfg.Flank
	window = a.idx.ref.Slice(pos.Contig, winStart, pos.Pos+m+a.cfg.Flank)
	if len(window) < m/2 {
		return genome.Position{}, nil, false
	}
	return genome.Position{Contig: pos.Contig, Pos: max(winStart, 0)}, window, true
}

// alignOriented aligns one orientation of the read, returning scored
// placements (unsorted).
func (a *Aligner) alignOriented(seq []byte, reverse bool) []Alignment {
	cands := a.seedCandidates(seq)
	var out []Alignment
	minScore := int(a.cfg.MinScoreFrac * float64(len(seq)))
	for _, c := range cands {
		start, window, ok := a.candidateWindow(c, len(seq))
		if !ok {
			continue
		}
		fit := fitAlign(seq, window, a.cfg.Scoring)
		if fit.Score < minScore {
			continue
		}
		out = append(out, Alignment{
			Pos:     genome.Position{Contig: start.Contig, Pos: start.Pos + fit.RefStart},
			Reverse: reverse,
			Score:   fit.Score,
			Cigar:   fit.Cigar,
		})
	}
	return out
}

// AlignSeq aligns a single read sequence (with quality), returning all
// plausible placements sorted by descending score; MapQ is assigned from the
// best-versus-second-best score gap. The first element (when present) is the
// primary alignment.
func (a *Aligner) AlignSeq(seq, qual []byte) []Alignment {
	fwd := a.alignOriented(seq, false)
	rc := genome.ReverseComplement(seq)
	rev := a.alignOriented(rc, true)
	all := append(fwd, rev...)
	if len(all) == 0 {
		return nil
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		if all[i].Pos.Contig != all[j].Pos.Contig {
			return all[i].Pos.Contig < all[j].Pos.Contig
		}
		return all[i].Pos.Pos < all[j].Pos.Pos
	})
	// Deduplicate identical placements.
	dedup := all[:1]
	for _, al := range all[1:] {
		last := dedup[len(dedup)-1]
		if al.Pos == last.Pos && al.Reverse == last.Reverse {
			continue
		}
		dedup = append(dedup, al)
	}
	all = dedup
	// MAPQ: BWA-MEM-like heuristic on the score gap.
	best := all[0].Score
	second := 0
	if len(all) > 1 {
		second = all[1].Score
	}
	mapq := 6 * (best - second)
	if len(all) == 1 {
		mapq = 60
	}
	if mapq > 60 {
		mapq = 60
	}
	if mapq < 0 {
		mapq = 0
	}
	all[0].MapQ = uint8(mapq)
	for i := range all {
		if all[i].Reverse {
			all[i].Seq = rc
			all[i].Qual = reverseBytes(qual)
		} else {
			all[i].Seq = seq
			all[i].Qual = qual
		}
	}
	return all
}

func reverseBytes(b []byte) []byte {
	out := make([]byte, len(b))
	for i := range b {
		out[len(b)-1-i] = b[i]
	}
	return out
}

// AlignPair aligns both mates of a paired-end read and scores pair
// combinations, preferring properly oriented pairs within the insert-size
// range. It returns a SAM record per mate (unmapped records when a mate
// fails to align).
func (a *Aligner) AlignPair(p *fastq.Pair) (sam.Record, sam.Record) {
	als1 := a.AlignSeq(p.R1.Seq, p.R1.Qual)
	als2 := a.AlignSeq(p.R2.Seq, p.R2.Qual)

	best1, best2, proper := a.pickPair(als1, als2)
	r1 := a.toRecord(&p.R1, best1, sam.FlagFirstOfPair)
	r2 := a.toRecord(&p.R2, best2, sam.FlagSecondOfPair)
	crossLink(&r1, &r2, proper)
	return r1, r2
}

// pickPair selects the mate placements maximizing combined score with a
// proper-pair bonus.
func (a *Aligner) pickPair(als1, als2 []Alignment) (*Alignment, *Alignment, bool) {
	var best1, best2 *Alignment
	proper := false
	bestScore := -1 << 30
	if len(als1) > 0 {
		best1 = &als1[0]
		bestScore = als1[0].Score
	}
	if len(als2) > 0 {
		best2 = &als2[0]
		if best1 != nil {
			bestScore = best1.Score + best2.Score
		} else {
			bestScore = best2.Score
		}
	}
	if len(als1) == 0 || len(als2) == 0 {
		return best1, best2, false
	}
	// Bounded search over top placements for a proper pair.
	lim := func(n int) int {
		if n > 4 {
			return 4
		}
		return n
	}
	for i := 0; i < lim(len(als1)); i++ {
		for j := 0; j < lim(len(als2)); j++ {
			a1, a2 := &als1[i], &als2[j]
			if !properOrientation(a1, a2, a.cfg.MinInsert, a.cfg.MaxInsert) {
				continue
			}
			score := a1.Score + a2.Score + a.cfg.ProperPairBonus
			if score > bestScore {
				bestScore, best1, best2, proper = score, a1, a2, true
			}
		}
	}
	if !proper && best1 != nil && best2 != nil &&
		properOrientation(best1, best2, a.cfg.MinInsert, a.cfg.MaxInsert) {
		proper = true
	}
	return best1, best2, proper
}

// properOrientation reports whether two placements form a forward-reverse
// pair on one contig within the insert range.
func properOrientation(a1, a2 *Alignment, minIns, maxIns int) bool {
	if a1.Pos.Contig != a2.Pos.Contig || a1.Reverse == a2.Reverse {
		return false
	}
	fwd, rev := a1, a2
	if fwd.Reverse {
		fwd, rev = rev, fwd
	}
	insert := rev.Pos.Pos + rev.Cigar.RefLen() - fwd.Pos.Pos
	return insert >= minIns && insert <= maxIns
}

// toRecord converts an alignment (possibly nil = unmapped) to a SAM record.
func (a *Aligner) toRecord(read *fastq.Record, al *Alignment, mateFlag uint16) sam.Record {
	rec := sam.Record{
		Name: trimMateSuffix(read.Name),
		Flag: sam.FlagPaired | mateFlag,
		Seq:  read.Seq,
		Qual: read.Qual,
	}
	if al == nil {
		rec.Flag |= sam.FlagUnmapped
		rec.RefID, rec.Pos = -1, -1
		rec.MateRef, rec.MatePos = -1, -1
		return rec
	}
	rec.RefID = int32(al.Pos.Contig)
	rec.Pos = int32(al.Pos.Pos)
	rec.MapQ = al.MapQ
	rec.Cigar = al.Cigar
	rec.Seq = al.Seq
	rec.Qual = al.Qual
	if al.Reverse {
		rec.Flag |= sam.FlagReverse
	}
	return rec
}

// crossLink fills mate fields and TLEN on a record pair.
func crossLink(r1, r2 *sam.Record, proper bool) {
	link := func(r, mate *sam.Record) {
		if mate.Unmapped() {
			r.Flag |= sam.FlagMateUnmapped
			r.MateRef, r.MatePos = -1, -1
			return
		}
		r.MateRef, r.MatePos = mate.RefID, mate.Pos
		if mate.Reverse() {
			r.Flag |= sam.FlagMateReverse
		}
	}
	link(r1, r2)
	link(r2, r1)
	if proper && !r1.Unmapped() && !r2.Unmapped() {
		r1.Flag |= sam.FlagProperPair
		r2.Flag |= sam.FlagProperPair
		lo, hi := r1, r2
		if lo.Pos > hi.Pos {
			lo, hi = hi, lo
		}
		tlen := hi.Pos + int32(hi.Cigar.RefLen()) - lo.Pos
		lo.TempLen = tlen
		hi.TempLen = -tlen
	}
}

func trimMateSuffix(name string) string {
	if n := len(name); n > 2 && name[n-2] == '/' && (name[n-1] == '1' || name[n-1] == '2') {
		return name[:n-2]
	}
	return name
}
