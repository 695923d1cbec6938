// Serving: train a quick library, stand up the prediction-serving subsystem
// (sharded decision cache + HTTP API), and drive it like a multi-tenant
// client — single queries, a mixed-shape batch, and a look at the decision ledger.
//
//	go run ./examples/serving
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	adsala "repro"
	"repro/internal/core"
	"repro/internal/sampling"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	// 1. Installation (quick mode, simulated Gadi node).
	fmt.Println("== training a quick library for Gadi ==")
	lib, _, err := adsala.Train(adsala.TrainOptions{Platform: "Gadi", Shapes: 120, Quick: true, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("selected model: %s\n\n", lib.ModelKind())

	// 2. Build the engine and serve it over HTTP on an ephemeral port. The
	// decision cache starts empty; first-touch traffic fills it. As in
	// adsala-serve, the engine is built on the saved artefact itself: a
	// daemon answers for the machine the model describes, and ranks all of
	// its candidates. (lib.Engine would rank only what this host can run —
	// the right engine for in-process calls, not for remote ones.)
	dir, err := os.MkdirTemp("", "adsala-serving-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "gadi.adsala.json")
	if err := lib.Save(path); err != nil {
		log.Fatal(err)
	}
	artefact, err := core.Load(path)
	if err != nil {
		log.Fatal(err)
	}
	eng := serve.NewEngine(artefact, serve.Options{CacheSize: 1024, Shards: 16})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: serve.NewServer(eng)}
	go func() {
		if err := srv.Serve(ln); err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving on %s\n\n", base)

	// 3. Single predictions over the wire.
	client := serve.NewClient(base, nil)
	fmt.Println("== /predict ==")
	for _, s := range [][3]int{{64, 64, 64}, {64, 2048, 64}, {4000, 4000, 4000}} {
		threads, err := client.Predict(ctx, serve.PredictRequest{M: s[0], K: s[1], N: s[2]})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %5dx%5dx%5d -> %3d threads\n", s[0], s[1], s[2], threads)
	}

	// 4. A mixed-shape batch in one round trip.
	sampler, err := sampling.NewSampler(sampling.DefaultDomain().WithCapMB(100), 42)
	if err != nil {
		log.Fatal(err)
	}
	shapes := sampler.Sample(32)
	reqs := make([]serve.PredictRequest, len(shapes))
	for i, sh := range shapes {
		reqs[i] = serve.PredictRequest{M: sh.M, K: sh.K, N: sh.N}
	}
	start := time.Now()
	threads, err := client.PredictBatch(ctx, reqs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n== /batch: %d shapes in %v ==\n", len(shapes), time.Since(start).Round(time.Microsecond))
	for i := 0; i < 4; i++ {
		fmt.Printf("  %v -> %d threads\n", shapes[i], threads[i])
	}
	fmt.Printf("  ... and %d more\n", len(shapes)-4)

	// 5. The decision ledger; everything else is on /metrics.
	st, err := client.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n== /stats ==\n")
	fmt.Printf("  predictions: %d (%d cache hits, %d misses), hit rate %.0f%%\n",
		st.Engine.Predictions, st.Engine.CacheHits, st.Engine.CacheMisses, 100*st.Engine.HitRate)
	fmt.Printf("  per-op decisions, ranking latency, cache occupancy and HTTP timings: %s/metrics\n", base)
}
