package cleaner

import "github.com/gpf-go/gpf/internal/sam"

// recalibratedQual is the per-base form of the apply kernel: the GATK delta
// decomposition with every empiricalQual evaluated for the base at hand.
// recalTables must reproduce it bit for bit.
func (t *RecalTable) recalibratedQual(reportedQ, cycle int, prev, cur byte) int {
	if t.Global.Obs == 0 {
		return reportedQ
	}
	q := reportedQ
	if q >= maxQual {
		q = maxQual - 1
	}
	if q < 0 {
		q = 0
	}
	global := t.Global.empiricalQual()
	out := t.ByQual[q].empiricalQual()
	if c := t.ByCycle[cycleBin(cycle)]; c.Obs > 0 {
		out += c.empiricalQual() - global
	}
	if ctx := contextBin(prev, cur); ctx >= 0 && t.ByCtx[ctx].Obs > 0 {
		out += t.ByCtx[ctx].empiricalQual() - global
	}
	qi := int(out + 0.5)
	if qi < 2 {
		qi = 2
	}
	if qi > 60 {
		qi = 60
	}
	return qi
}

// applyRecalibrationPerBase is the per-base ApplyRecalibration: the oracle
// for the table-driven kernel.
func applyRecalibrationPerBase(records []sam.Record, t *RecalTable) {
	for i := range records {
		r := &records[i]
		if r.Unmapped() || len(r.Qual) != len(r.Seq) {
			continue
		}
		newQual := make([]byte, len(r.Qual))
		for j := range r.Qual {
			reported := int(r.Qual[j]) - 33
			var prev byte = 'N'
			if j > 0 {
				prev = r.Seq[j-1]
			}
			newQual[j] = byte(t.recalibratedQual(reported, j, prev, r.Seq[j]) + 33)
		}
		r.Qual = newQual
	}
}
