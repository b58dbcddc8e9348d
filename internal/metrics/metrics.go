package metrics

import (
	"fmt"
	"math"
	"sort"
)

// AUC computes the area under the ROC curve via the rank-statistic
// formulation, with proper tie handling (average ranks). Returns NaN when
// any score is NaN (a diverged model has no ranking), else 0.5 when one
// class is absent.
func AUC(scores []float32, labels []float32) float64 {
	if len(scores) != len(labels) {
		panic(fmt.Sprintf("metrics: AUC %d scores vs %d labels", len(scores), len(labels)))
	}
	for _, s := range scores {
		if s != s {
			return math.NaN()
		}
	}
	n := len(scores)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })

	// Average ranks over ties.
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i + 1 // a tie group holds at least its first element
		for j < n && scores[idx[j]] == scores[idx[i]] {
			j++
		}
		avg := float64(i+j+1) / 2 // ranks are 1-based
		for k := i; k < j; k++ {
			ranks[idx[k]] = avg
		}
		i = j
	}
	var pos, rankSum float64
	for i, l := range labels {
		if l == 1 {
			pos++
			rankSum += ranks[i]
		}
	}
	neg := float64(n) - pos
	if pos == 0 || neg == 0 {
		return 0.5
	}
	return (rankSum - pos*(pos+1)/2) / (pos * neg)
}

// Accuracy is the fraction of predictions on the correct side of 0.5.
func Accuracy(probs []float32, labels []float32) float64 {
	if len(probs) == 0 {
		return 0
	}
	correct := 0
	for i, p := range probs {
		pred := float32(0)
		if p >= 0.5 {
			pred = 1
		}
		if pred == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(probs))
}

// LogLoss is the mean binary cross-entropy of probabilities (clamped away
// from 0/1 for stability, like sklearn).
func LogLoss(probs []float32, labels []float32) float64 {
	if len(probs) == 0 {
		return 0
	}
	const eps = 1e-7
	var sum float64
	for i, p := range probs {
		q := math.Min(math.Max(float64(p), eps), 1-eps)
		if labels[i] == 1 {
			sum += -math.Log(q)
		} else {
			sum += -math.Log(1 - q)
		}
	}
	return sum / float64(len(probs))
}

// Summary bundles the Table V metric triple.
type Summary struct {
	Accuracy float64
	AUC      float64
	LogLoss  float64
}

// Evaluate computes all three metrics at once.
func Evaluate(probs []float32, labels []float32) Summary {
	return Summary{
		Accuracy: Accuracy(probs, labels),
		AUC:      AUC(probs, labels),
		LogLoss:  LogLoss(probs, labels),
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("acc=%.4f auc=%.4f logloss=%.4f", s.Accuracy, s.AUC, s.LogLoss)
}
