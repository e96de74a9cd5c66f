// Command dclbench regenerates the paper's evaluation figures (Section V)
// on the simulated testbed. Each figure prints an aligned table of the
// measured series next to notes recalling the paper's published result.
//
// Usage:
//
//	dclbench -fig all          # run every experiment
//	dclbench -fig 4            # Mandelbrot scalability (MPI+OpenCL vs dOpenCL)
//	dclbench -fig 5            # list-mode OSEM offloading
//	dclbench -fig 6            # device manager, 1-4 concurrent clients
//	dclbench -fig 7            # 1024 MB transfer, GigE vs PCIe
//	dclbench -fig 8            # transfer efficiency vs chunk size
//	dclbench -fig all -quick   # reduced workloads
//	dclbench -timescale 0.05   # slower, more accurate time compression
//	dclbench -cpuprofile p.out # CPU profile of any of the above
//
// Performance of the stack itself (end-to-end workloads and the per-layer
// ladder) is measured by the benchmark package: see benchmark/README.md.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"

	"dopencl/internal/exp"
)

func main() {
	fig := flag.String("fig", "all", "figure to reproduce: 4, 5, 6, 7, 8 or all")
	quick := flag.Bool("quick", false, "reduced workload sizes")
	timescale := flag.Float64("timescale", 0.02, "time compression factor (modeled seconds × factor = real seconds)")
	verbose := flag.Bool("v", false, "progress logging")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("dclbench: -cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("dclbench: -cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Printf("dclbench: -memprofile: %v", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("dclbench: -memprofile: %v", err)
			}
		}()
	}

	opt := exp.Options{TimeScale: *timescale, Quick: *quick}
	if *verbose {
		opt.Logf = log.Printf
	}

	run := func(name string, f func() (fmt.Stringer, error)) {
		res, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(res.String())
	}

	figs := map[string]func(){
		"4": func() {
			run("figure 4", func() (fmt.Stringer, error) {
				r, err := exp.RunFig4(opt)
				if err != nil {
					return nil, err
				}
				return r.Table(), nil
			})
		},
		"5": func() {
			run("figure 5", func() (fmt.Stringer, error) {
				r, err := exp.RunFig5(opt)
				if err != nil {
					return nil, err
				}
				t := r.Table()
				t.Notes = append(t.Notes, fmt.Sprintf("measured speedup desktop OpenCL → desktop dOpenCL: %.2fx (paper: 3.75x)", r.Speedup()))
				return t, nil
			})
		},
		"6": func() {
			run("figure 6", func() (fmt.Stringer, error) {
				r, err := exp.RunFig6(opt)
				if err != nil {
					return nil, err
				}
				return r.Table(), nil
			})
		},
		"7": func() {
			run("figure 7", func() (fmt.Stringer, error) {
				r, err := exp.RunFig7(opt)
				if err != nil {
					return nil, err
				}
				t := r.Table()
				t.Notes = append(t.Notes, fmt.Sprintf("measured ratios: write %.1fx, read %.1fx (paper: ~50x, ~4.5x)", r.WriteRatio(), r.ReadRatio()))
				return t, nil
			})
		},
		"8": func() {
			run("figure 8", func() (fmt.Stringer, error) {
				r, err := exp.RunFig8(opt)
				if err != nil {
					return nil, err
				}
				return r.Table(), nil
			})
		},
	}

	switch *fig {
	case "all":
		for _, k := range []string{"4", "5", "6", "7", "8"} {
			figs[k]()
		}
	default:
		f, ok := figs[*fig]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown figure %q (want 4-8 or all)\n", *fig)
			os.Exit(2)
		}
		f()
	}
}
