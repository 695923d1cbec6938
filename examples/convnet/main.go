// Convnet: the paper's motivating workload (§I) — convolution layers lowered
// to GEMM produce small and irregular shapes (e.g. ResNet's 64×3000-style
// operands) for which max-thread BLAS is far from optimal. This example
// replays the im2col GEMM stream of a ResNet-like network on the simulated
// Gadi node and compares default max-thread execution against ADSALA.
//
//	go run ./examples/convnet
package main

import (
	"fmt"
	"log"

	adsala "repro"
	"repro/internal/machine"
	"repro/internal/simtime"
	"repro/internal/tabulate"
)

// layer is one conv layer lowered to GEMM: C(filters × pixels) =
// W(filters × patch) · X(patch × pixels).
type layer struct {
	name    string
	filters int // m
	patch   int // k = in_channels * kh * kw
	pixels  int // n = out_h * out_w * batch
}

// resnetLayers approximates the GEMM shapes of a ResNet-18 forward pass at
// batch size 1 — latency-bound inference, where every GEMM is small or
// irregular (the shapes the paper's introduction cites).
func resnetLayers() []layer {
	return []layer{
		{"conv1 7x7/2", 64, 147, 12544},
		{"conv2.x 3x3", 64, 576, 3136},
		{"conv3.1 3x3/2", 128, 1152, 784},
		{"conv3.x 3x3", 128, 1152, 784},
		{"conv4.1 3x3/2", 256, 2304, 196},
		{"conv4.x 3x3", 256, 2304, 196},
		{"conv5.1 3x3/2", 512, 4608, 49},
		{"conv5.x 3x3", 512, 4608, 49},
		{"fc", 1000, 512, 1},
	}
}

func main() {
	log.SetFlags(0)
	fmt.Println("== ADSALA on a ResNet-like im2col GEMM stream (simulated Gadi) ==")
	lib, _, err := adsala.Train(adsala.TrainOptions{
		Platform: "Gadi", Shapes: 120, Quick: true, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}

	node := machine.Gadi()
	sim := simtime.New(simtime.DefaultConfig(node))
	const defaultThreads = 48 // one thread per physical core
	const repeats = 10        // forward passes; the decision cache amortises eval

	tb := tabulate.New("layer", "m", "k", "n", "default us", "ml threads", "adsala us", "speedup")
	var totDefault, totML float64
	for _, l := range resnetLayers() {
		tDef := sim.Measure(adsala.OpGEMM, l.filters, l.patch, l.pixels, defaultThreads, 3) * repeats
		// The decision for the simulated node, so ranked over the artefact's
		// whole candidate set: the library's engines rank only what this
		// host could run.
		threads := lib.OptimalThreadsOp(adsala.OpGEMM, l.filters, l.patch, l.pixels)
		tML := sim.Measure(adsala.OpGEMM, l.filters, l.patch, l.pixels, threads, 3)*repeats + lib.EvalLatency()
		totDefault += tDef
		totML += tML
		tb.Row(l.name, tabulate.D(l.filters), tabulate.D(l.patch), tabulate.D(l.pixels),
			tabulate.F(tDef*1e6, 1), tabulate.D(threads), tabulate.F(tML*1e6, 1),
			tabulate.F(tDef/tML, 2))
	}
	fmt.Print(tb.String())
	fmt.Printf("\nnetwork GEMM time over %d passes: default %.2f ms, ADSALA %.2f ms — %.2fx speedup\n",
		repeats, totDefault*1e3, totML*1e3, totDefault/totML)
	fmt.Println("(one model evaluation charged per distinct layer shape: at runtime repeats hit the decision cache)")
}
