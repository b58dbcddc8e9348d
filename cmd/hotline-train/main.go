// Command hotline-train trains a recommendation model on a synthetic
// dataset with either the baseline executor or the Hotline µ-batch
// executor, reporting the loss and AUC trajectory.
//
// Usage:
//
//	hotline-train -dataset "Criteo Kaggle" -executor hotline -iters 100
//	hotline-train -dataset RM1 -executor baseline -batch 128
//	hotline-train -dataset RM2 -parity            # run both, compare
package main

import (
	"flag"
	"fmt"
	"os"

	"hotline"
)

func main() {
	dataset := flag.String("dataset", "Criteo Kaggle", "dataset name or RM id")
	executor := flag.String("executor", "hotline", "baseline | hotline")
	batch := flag.Int("batch", 64, "mini-batch size")
	iters := flag.Int("iters", 60, "training iterations")
	lr := flag.Float64("lr", 0.1, "learning rate")
	seed := flag.Uint64("seed", 42, "model init seed")
	parity := flag.Bool("parity", false, "train both executors and compare (Table V)")
	parallel := flag.Int("par", 0, "training kernel workers (0 = NumCPU); results are bit-identical for any value")
	flag.Parse()

	if *batch < 1 {
		fmt.Fprintf(os.Stderr, "hotline-train: -batch must be >= 1, got %d\n", *batch)
		os.Exit(2)
	}
	hotline.Parallelism(*parallel)
	cfg, err := hotline.DatasetByName(*dataset)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hotline-train:", err)
		os.Exit(1)
	}

	run := hotline.TrainRunConfig{BatchSize: *batch, Iters: *iters, EvalEvery: *iters / 5, EvalSize: 1024}

	if *parity {
		rep := hotline.RunParity(cfg, *seed, run)
		fmt.Printf("parity on %s after %d iterations:\n  %v\n", cfg.Name, *iters, rep)
		return
	}

	m := hotline.NewModel(cfg, *seed)
	var tr hotline.Trainer
	switch *executor {
	case "baseline":
		tr = hotline.NewBaselineTrainer(m, float32(*lr))
	case "hotline":
		tr = hotline.NewHotlineTrainer(m, float32(*lr))
	default:
		fmt.Fprintf(os.Stderr, "hotline-train: unknown executor %q\n", *executor)
		os.Exit(1)
	}

	fmt.Printf("training %s (%s) with the %s executor, batch %d, lr %g\n",
		cfg.Name, cfg.RM, tr.Name(), *batch, *lr)
	curve := hotline.RunTraining(tr, hotline.NewGenerator(cfg), run)
	for _, p := range curve {
		fmt.Printf("iter %4d  loss %.4f  %v\n", p.Iteration, p.Loss, p.Metrics)
	}
	if ht, ok := tr.(interface{ PopularFraction() float64 }); ok {
		fmt.Printf("popular inputs: %.1f%%\n", ht.PopularFraction()*100)
	}
}
