package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// hostInfo is the host block printed with every report: numbers mean
// nothing without the machine they were read on.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	LLC        string `json:"llc_size"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
	Transport  string `json:"transport"`
}

var host = readHost()

func readHost() hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		LLC:        llcSize(),
		GoVersion:  runtime.Version(),
		GitRev:     gitRev(),
		Transport:  transport,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// llcSize reads the highest-level cache of cpu0 from sysfs.
func llcSize() string {
	best, bestLevel := "unknown", ""
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		level, err1 := os.ReadFile(filepath.Join(d, "level"))
		size, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		if l := strings.TrimSpace(string(level)); l > bestLevel {
			bestLevel, best = l, strings.TrimSpace(string(size))
		}
	}
	return best
}

// cpuTicks returns the stolen and total CPU ticks since boot from
// /proc/stat (zeros where that file does not exist).
func cpuTicks() (steal, total uint64) {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealMeter reports the share of CPU time the hypervisor took from this
// guest while the benchmark ran: context for a reading that is off.
type stealMeter struct{ steal, total uint64 }

func startStealMeter() stealMeter {
	s, t := cpuTicks()
	return stealMeter{s, t}
}

func (m stealMeter) percent() float64 {
	s, t := cpuTicks()
	if t <= m.total {
		return 0
	}
	return 100 * float64(s-m.steal) / float64(t-m.total)
}

// gitRev reads the checked-out commit without running git: the build's
// VCS stamp if there is one, else .git/HEAD of the working directory.
func gitRev() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		if sha, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
			return strings.TrimSpace(string(sha))
		}
		return name
	}
	return ref
}

// manifest is the part of BENCHMARK.json the program checks itself
// against.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// checkManifest fails when BENCHMARK.json and the program's tables name
// different workloads or metrics, so the two cannot drift.
func checkManifest(path string) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading the benchmark manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(m.Workloads) != len(workloads) {
		return fmt.Errorf("%s names %d workloads, the program %d", path, len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name {
			return fmt.Errorf("%s workload %d is %q, the program's is %q", path, i, m.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got, want []metricDef) error {
		if len(got) != len(want) {
			return fmt.Errorf("%s lists %d %s metrics, the program %d", path, len(got), kind, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("%s %s metric %d is %+v, the program's is %+v", path, kind, i, got[i], want[i])
			}
		}
		return nil
	}
	if err := same("end_to_end", m.EndToEnd, endToEnd); err != nil {
		return err
	}
	return same("per_layer", m.PerLayer, perLayer())
}
