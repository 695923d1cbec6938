// Platformstudy: the "Architecture Aware" part of ADSALA — the same GEMM
// shape gets a different thread count on different nodes. This example
// trains one library per platform (2x64-core Zen 3 "Setonix" and 2x24-core
// Cascade Lake "Gadi") and contrasts their decisions and the speedups each
// achieves over the max-thread default on its own machine.
//
//	go run ./examples/platformstudy
package main

import (
	"fmt"
	"log"

	adsala "repro"
	"repro/internal/machine"
	"repro/internal/simtime"
	"repro/internal/tabulate"
)

func main() {
	log.SetFlags(0)
	type plat struct {
		lib  *adsala.Library
		sim  *simtime.Simulator
		ref  int
		name string
	}
	var plats []plat
	for _, name := range []string{"Setonix", "Gadi"} {
		lib, _, err := adsala.Train(adsala.TrainOptions{
			Platform: name, Shapes: 120, Quick: true, Seed: 9,
		})
		if err != nil {
			log.Fatal(err)
		}
		node, err := machine.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		plats = append(plats, plat{
			lib:  lib,
			sim:  simtime.New(simtime.DefaultConfig(node)),
			ref:  node.PhysicalCores(),
			name: name,
		})
		fmt.Printf("trained %s library (model %s)\n", name, lib.ModelKind())
	}

	shapes := [][3]int{
		{64, 64, 64},
		{64, 2048, 64},
		{64, 64, 4096},
		{256, 256, 4096},
		{1024, 1024, 1024},
		{128, 50000, 128},
		{4096, 4096, 512},
		{8000, 8000, 8000},
	}
	fmt.Println("\nsame shape, different machine, different decision:")
	tb := tabulate.New("m x k x n",
		"Setonix threads", "Setonix speedup", "Gadi threads", "Gadi speedup")
	for _, s := range shapes {
		cells := []string{fmt.Sprintf("%dx%dx%d", s[0], s[1], s[2])}
		for _, p := range plats {
			threads := p.lib.OptimalThreadsOp(adsala.OpGEMM, s[0], s[1], s[2])
			tML := p.sim.Measure(adsala.OpGEMM, s[0], s[1], s[2], threads, 3)
			tRef := p.sim.Measure(adsala.OpGEMM, s[0], s[1], s[2], p.ref, 3)
			cells = append(cells, tabulate.D(threads), tabulate.F(tRef/tML, 2))
		}
		tb.Row(cells...)
	}
	fmt.Print(tb.String())
	fmt.Println("\nspeedups are against one thread per physical core on each machine")
	fmt.Println("(128 on Setonix, 48 on Gadi), the paper's baseline.")
}
