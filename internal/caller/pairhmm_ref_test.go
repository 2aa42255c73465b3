package caller

import "math"

// Log-space transition probabilities of the reference pass.
var (
	logMM = math.Log(1 - 2*gapOpenProb)
	logMG = math.Log(gapOpenProb)
	logGG = math.Log(gapExtendProb)
	logGM = math.Log(1 - gapExtendProb)
)

func logSumExp3(a, b, c float64) float64 {
	return logSumExp2(logSumExp2(a, b), c)
}

// pairHMMReference is the unoptimized cell-by-cell log-space forward pass:
// the equivalence oracle pairHMMScaled is property-tested against.
func pairHMMReference(read, qual, hap []byte) float64 {
	m, n := len(read), len(hap)
	if m == 0 || n == 0 {
		return math.Inf(-1)
	}
	negInf := math.Inf(-1)
	// Rolling rows over the haplotype dimension.
	prevM := make([]float64, n+1)
	prevI := make([]float64, n+1)
	prevD := make([]float64, n+1)
	curM := make([]float64, n+1)
	curI := make([]float64, n+1)
	curD := make([]float64, n+1)
	// Initialization: the read may start anywhere on the haplotype (free
	// leading flank): uniform prior over start columns.
	startLog := -math.Log(float64(n))
	for j := 0; j <= n; j++ {
		prevM[j] = negInf
		prevI[j] = negInf
		prevD[j] = negInf
	}
	for i := 1; i <= m; i++ {
		curM[0], curI[0], curD[0] = negInf, negInf, negInf
		errP := phredToProb(qual, i-1)
		for j := 1; j <= n; j++ {
			var emit float64
			if read[i-1] == hap[j-1] && read[i-1] != 'N' {
				emit = math.Log(1 - errP)
			} else {
				emit = math.Log(errP / 3)
			}
			var diag float64
			if i == 1 {
				diag = startLog // start of read anchored at column j
			} else {
				diag = logSumExp3(prevM[j-1]+logMM, prevI[j-1]+logGM, prevD[j-1]+logGM)
			}
			curM[j] = emit + diag
			// Insertion (read base not on haplotype): consumes read only.
			curI[j] = logSumExp2(prevM[j]+logMG, prevI[j]+logGG)
			// Deletion (haplotype base skipped): consumes haplotype only.
			curD[j] = logSumExp2(curM[j-1]+logMG, curD[j-1]+logGG)
		}
		prevM, curM = curM, prevM
		prevI, curI = curI, prevI
		prevD, curD = curD, prevD
	}
	// Free trailing flank: sum over end columns of M and I.
	total := negInf
	for j := 1; j <= n; j++ {
		total = logSumExp2(total, logSumExp2(prevM[j], prevI[j]))
	}
	return total
}

// pairHMMBatchPerPair is the per-pair batch: every read scored against every
// haplotype with its own pairHMMScaled pass. PairHMMBatch must match it bit
// for bit.
func pairHMMBatchPerPair(reads, quals, haps [][]byte) [][]float64 {
	L := make([][]float64, len(reads))
	for i := range reads {
		L[i] = make([]float64, len(haps))
		for h, hap := range haps {
			rows := make([]float64, 6*(len(hap)+1))
			L[i][h] = pairHMMScaled(reads[i], quals[i], hap, rows)
		}
	}
	return L
}
