package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"hotline/internal/tensor"
)

func TestAUCPerfectRanking(t *testing.T) {
	scores := []float32{0.1, 0.2, 0.8, 0.9}
	labels := []float32{0, 0, 1, 1}
	if a := AUC(scores, labels); a != 1 {
		t.Fatalf("perfect AUC = %g", a)
	}
	inverted := []float32{0.9, 0.8, 0.2, 0.1}
	if a := AUC(inverted, labels); a != 0 {
		t.Fatalf("inverted AUC = %g", a)
	}
}

func TestAUCRandomIsHalf(t *testing.T) {
	rng := tensor.NewRNG(1)
	n := 5000
	scores := make([]float32, n)
	labels := make([]float32, n)
	for i := range scores {
		scores[i] = rng.Float32()
		if rng.Float32() < 0.5 {
			labels[i] = 1
		}
	}
	if a := AUC(scores, labels); math.Abs(a-0.5) > 0.03 {
		t.Fatalf("random AUC = %g", a)
	}
}

func TestAUCTiesAveraged(t *testing.T) {
	// All scores equal: AUC must be exactly 0.5 by tie averaging.
	scores := []float32{0.5, 0.5, 0.5, 0.5}
	labels := []float32{0, 1, 0, 1}
	if a := AUC(scores, labels); a != 0.5 {
		t.Fatalf("tied AUC = %g", a)
	}
}

func TestAUCOneClass(t *testing.T) {
	if a := AUC([]float32{0.1, 0.9}, []float32{1, 1}); a != 0.5 {
		t.Fatalf("single-class AUC = %g", a)
	}
}

// Property: AUC is invariant under strictly monotone score transforms.
func TestAUCMonotoneInvarianceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 50
		scores := make([]float32, n)
		labels := make([]float32, n)
		for i := range scores {
			scores[i] = rng.Float32() * 4
			if rng.Float32() < 0.4 {
				labels[i] = 1
			}
		}
		transformed := make([]float32, n)
		for i, s := range scores {
			transformed[i] = float32(math.Exp(float64(s))) // strictly monotone
		}
		return math.Abs(AUC(scores, labels)-AUC(transformed, labels)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAccuracy(t *testing.T) {
	probs := []float32{0.9, 0.2, 0.6, 0.4}
	labels := []float32{1, 0, 0, 1}
	if a := Accuracy(probs, labels); a != 0.5 {
		t.Fatalf("accuracy = %g", a)
	}
	if Accuracy(nil, nil) != 0 {
		t.Fatal("empty accuracy should be 0")
	}
}

func TestLogLossKnown(t *testing.T) {
	probs := []float32{0.8, 0.3}
	labels := []float32{1, 0}
	want := (-math.Log(0.8) - math.Log(0.7)) / 2
	if got := LogLoss(probs, labels); math.Abs(got-want) > 1e-6 {
		t.Fatalf("logloss = %g want %g", got, want)
	}
}

func TestLogLossClampsExtremes(t *testing.T) {
	got := LogLoss([]float32{0, 1}, []float32{1, 0})
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("logloss must clamp, got %g", got)
	}
}

func TestEvaluateBundle(t *testing.T) {
	s := Evaluate([]float32{0.9, 0.1}, []float32{1, 0})
	if s.Accuracy != 1 || s.AUC != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("String should render")
	}
}

// TestAUCNaNScoreReturnsNaN: a NaN score (a diverged model) must yield a
// NaN AUC promptly. NaN compares unequal to itself, which once left the
// tie loop without progress, so the call runs under a deadline and fails
// instead of hanging.
func TestAUCNaNScoreReturnsNaN(t *testing.T) {
	nan := float32(math.NaN())
	cases := [][]float32{
		{nan, nan, nan, nan},
		{0.1, nan, 0.9, 0.4},
		{nan, 0.2, 0.2, 0.7},
	}
	labels := []float32{0, 1, 0, 1}
	for _, scores := range cases {
		done := make(chan float64, 1)
		go func() { done <- AUC(scores, labels) }()
		select {
		case a := <-done:
			if !math.IsNaN(a) {
				t.Fatalf("AUC(%v) = %g, want NaN", scores, a)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("AUC(%v) did not return within 5s", scores)
		}
	}
}
