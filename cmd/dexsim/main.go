// Command dexsim runs a DEX churn simulation and prints per-step and
// aggregate health: the live demonstration of Theorem 1's maintenance
// guarantees. Real-graph maintenance is incremental (o(p) per
// operation), so million-node runs are practical:
//
//	dexsim -n0 8192 -steps 1000000 -pinsert 1.0 -gap-every 0 -audit sampled
//
// Usage:
//
//	dexsim -n0 64 -steps 500 -pinsert 0.6 -mode staggered -adversary random
//	dexsim -adversary cut -gap-every 25
//	dexsim -audit sampled        # o(n) incremental audit every step
//	dexsim -audit full           # exhaustive invariant check every step
//
// With -persist the run is durable: operations go through a
// write-ahead log, checkpoints are taken every -checkpoint-every
// steps, and SIGINT/SIGTERM trigger a final checkpoint before the
// summary. A killed run resumes exactly where it stopped:
//
//	dexsim -persist run.d -steps 100000          # Ctrl-C at will
//	dexsim -persist run.d -steps 100000 -resume  # continues to 100000
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"

	"repro/dex"
	"repro/internal/harness"
	"repro/internal/spectral"
	"repro/internal/stats"
)

func main() {
	var (
		n0       = flag.Int("n0", 64, "initial network size")
		steps    = flag.Int("steps", 500, "churn steps (with -resume: the lifetime total)")
		pinsert  = flag.Float64("pinsert", 0.55, "insertion probability (random adversary)")
		mode     = flag.String("mode", "staggered", "type-2 recovery: staggered|simplified")
		advName  = flag.String("adversary", "random", "adversary: random|insert|delete|maxdeg|cut|coord")
		seed     = flag.Int64("seed", 1, "random seed")
		gapEvery = flag.Int("gap-every", 50, "sample spectral gap every k steps (0=off; costly at large n)")
		degEvery = flag.Int("deg-every", -1, "sample max degree every k steps (-1=auto, 0=every step)")
		audit    = flag.String("audit", "off", "per-step invariant checks: off|sampled|full")
		histCap  = flag.Int("history-cap", -1, "cap per-step metrics history (-1=auto, 0=unbounded)")
		trace    = flag.Int("trace", 0, "print every k-th step's metrics (0=off)")
		memstats = flag.Bool("memstats", false, "print heap and adjacency-arena memory summary after the run")

		persistDir = flag.String("persist", "", "durable-state directory: WAL every op, periodic checkpoints, crash recovery")
		ckptEvery  = flag.Int("checkpoint-every", 4096, "steps between automatic checkpoints (-persist only)")
		groupOps   = flag.Int("group-commit", 1, "ops per WAL fsync batch (-persist only)")
		resume     = flag.Bool("resume", false, "resume from existing state in -persist dir (refused otherwise)")
	)
	flag.Parse()

	recovery := dex.Staggered
	if *mode == "simplified" {
		recovery = dex.Simplified
	} else if *mode != "staggered" {
		log.Fatalf("unknown mode %q", *mode)
	}
	var auditMode dex.AuditMode
	switch *audit {
	case "off", "false", "":
		auditMode = dex.AuditOff
	case "sampled":
		auditMode = dex.AuditSampled
	case "full", "true":
		auditMode = dex.AuditFull
	default:
		log.Fatalf("unknown audit mode %q (want off|sampled|full)", *audit)
	}
	if *histCap < 0 {
		// Auto: unbounded for interactive runs, bounded for long ones so a
		// 10^6-step run does not hold 10^6 StepMetrics (Totals keeps the
		// lifetime aggregates either way).
		*histCap = 0
		if *steps > 100_000 {
			*histCap = 65536
		}
	}
	opts := []dex.Option{
		dex.WithInitialSize(*n0),
		dex.WithMode(recovery),
		dex.WithSeed(*seed),
		dex.WithAuditMode(auditMode),
		dex.WithHistoryCap(*histCap),
	}
	if *persistDir != "" {
		if !*resume {
			if ckpts, _ := filepath.Glob(filepath.Join(*persistDir, "checkpoint-*.ckpt")); len(ckpts) > 0 {
				log.Fatalf("%s already holds state; pass -resume to continue it", *persistDir)
			}
		}
		opts = append(opts, dex.WithPersistence(*persistDir,
			dex.WithCheckpointEvery(*ckptEvery), dex.WithGroupCommit(*groupOps)))
	}
	nw, err := dex.New(opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer nw.Close()

	var adv harness.Adversary
	switch *advName {
	case "random":
		adv = harness.RandomChurn{PInsert: *pinsert}
	case "insert":
		adv = harness.InsertOnly{}
	case "delete":
		adv = harness.DeleteOnly{}
	case "maxdeg":
		adv = harness.MaxDegreeTarget{PTarget: 0.5}
	case "cut":
		adv = &harness.CutThinning{}
	case "coord":
		adv = harness.CoordinatorKiller{}
	default:
		log.Fatalf("unknown adversary %q", *advName)
	}
	if *degEvery < 0 {
		// Auto: every step for interactive runs; at large step counts the
		// O(n) max-degree scan is sampled so it cannot dominate the run.
		*degEvery = 0
		if *steps > 10_000 {
			*degEvery = *steps / 256
		}
	}

	startStep := nw.Totals().Steps
	fmt.Printf("DEX self-healing expander: n0=%d p0=%d mode=%s adversary=%s audit=%s\n",
		*n0, nw.P(), recovery, adv.Name(), auditMode)
	if startStep > 0 {
		root, covered := nw.LastRoot()
		fmt.Printf("resumed from %s at step %d (n=%d, history root %x over %d steps)\n",
			*persistDir, startStep, nw.Size(), root[:8], covered)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	recs, interrupted, err := run(nw, adv, sigc, runParams{
		steps: *steps, seed: *seed, gapEvery: *gapEvery, degEvery: *degEvery,
		durable: *persistDir != "",
	})
	signal.Stop(sigc)
	if err != nil {
		log.Fatal(err)
	}
	if interrupted {
		fmt.Printf("\ninterrupted at step %d", nw.Totals().Steps)
		if *persistDir != "" {
			fmt.Printf("; resume with: dexsim -persist %s -resume -steps %d ...", *persistDir, *steps)
		}
		fmt.Println()
	}
	if *persistDir != "" {
		// Final durable checkpoint so a resume replays no WAL suffix.
		if err := nw.Checkpoint(); err != nil {
			log.Fatalf("final checkpoint: %v", err)
		}
		root, covered := nw.LastRoot()
		fmt.Printf("durable state: %s at step %d, history root %x over %d steps\n",
			*persistDir, nw.Totals().Steps, root[:8], covered)
	}

	if *trace > 0 {
		for i, r := range recs {
			if i%*trace == 0 {
				fmt.Printf("step %5d  n=%5d  rounds=%4d msgs=%5d topo=%3d maxdeg=%3d\n",
					r.Step, r.N, r.Cost.Rounds, r.Cost.Messages, r.Cost.TopologyChanges, r.MaxDegree)
			}
		}
	}
	rounds, msgs, topo, maxDeg, minGap := harness.Summaries(recs)
	tb := &stats.Table{Header: []string{"measure", "mean", "p50", "p95", "p99", "max"}}
	tb.AddF("rounds", rounds.Mean, rounds.P50, rounds.P95, rounds.P99, rounds.Max)
	tb.AddF("messages", msgs.Mean, msgs.P50, msgs.P95, msgs.P99, msgs.Max)
	tb.AddF("topology-changes", topo.Mean, topo.P50, topo.P95, topo.P99, topo.Max)
	fmt.Println()
	fmt.Println(tb)
	fmt.Printf("final: n=%d p=%d max-degree=%d max-load=%d spare=%d low=%d\n",
		nw.Size(), nw.P(), maxDeg, nw.MaxLoad(), nw.SpareCount(), nw.LowCount())
	if minGap >= 0 {
		fmt.Printf("min sampled spectral gap: %.4f (final %.4f)\n", minGap, spectral.Gap(nw.Graph()))
	}
	if *memstats {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		st := nw.Graph().Stats()
		n := nw.Size()
		fmt.Printf("memstats: heap %.1f MB (%.0f B/node); arena: %d live cells in %d pool cells (%.1f MB, %.0f B/node), %d free\n",
			float64(ms.HeapAlloc)/(1<<20), float64(ms.HeapAlloc)/float64(n),
			st.LiveCells, st.PoolCap, float64(st.PoolCap*12)/(1<<20), float64(st.PoolCap*12)/float64(n),
			st.FreeCells)
	}
	tot := nw.Totals()
	fmt.Printf("type-2 activity: %d inflation and %d deflation events (%d staggered rebuilds committed); invariants: ",
		tot.InflateEvents, tot.DeflateEvents, tot.StaggerFinishes)
	if err := nw.CheckInvariants(); err != nil {
		fmt.Printf("VIOLATED (%v)\n", err)
		os.Exit(1)
	}
	fmt.Println("all hold")
}

type runParams struct {
	steps    int
	seed     int64
	gapEvery int
	degEvery int
	durable  bool
}

// run is the simulation loop: harness.Run with two additions — it
// stops cleanly on a signal, and in durable mode it keys the
// adversary's randomness off the engine's lifetime step count so a
// resumed run continues the exact op schedule the killed run was
// executing. In non-durable mode it reproduces harness.Run's records
// byte for byte (one shared rng, same sampling cadence).
func run(nw *dex.Network, adv harness.Adversary, sigc <-chan os.Signal, p runParams) ([]harness.Record, bool, error) {
	rng := rand.New(rand.NewSource(p.seed))
	capHint := p.steps
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	records := make([]harness.Record, 0, capHint)
	for i := nw.Totals().Steps; i < p.steps; i = nw.Totals().Steps {
		select {
		case <-sigc:
			return records, true, nil
		default:
		}
		if p.durable {
			// Deterministic across kill/resume: the adversary stream for
			// step i depends only on the seed and i, never on how many
			// sessions it took to get here. (Adversaries may perform more
			// than one engine step per Step call; keying on the engine's
			// lifetime count keeps the schedule aligned regardless.)
			rng = rand.New(rand.NewSource(p.seed ^ int64(uint64(i+1)*0x9E3779B97F4A7C15)))
		}
		if err := adv.Step(nw, rng); err != nil {
			return records, false, fmt.Errorf("step %d (%s): %w", i, adv.Name(), err)
		}
		rec := harness.Record{Step: i, N: nw.Size(), Cost: nw.LastCost(), Gap: math.NaN()}
		if p.gapEvery > 0 && i%p.gapEvery == 0 {
			rec.Gap = spectral.Gap(nw.Graph())
		}
		if p.degEvery == 0 || i%max(1, p.degEvery) == 0 {
			rec.MaxDegree = nw.Graph().MaxDistinctDegree()
		}
		records = append(records, rec)
	}
	return records, false, nil
}
