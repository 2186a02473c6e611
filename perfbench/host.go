package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// hostInfo is recorded with every result; two results whose hosts
// differ are flagged by compare.
type hostInfo struct {
	CPUModel   string            `json:"cpu_model"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	GOARCH     string            `json:"goarch"`
	Caches     map[string]string `json:"caches"`
	PoolMiB    int               `json:"sum_exact_pool_mib"`
}

func hostMetadata(p params) hostInfo {
	return hostInfo{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		Caches:     cacheSizes(),
		PoolMiB:    p.poolArrays * p.arrayLen * 8 >> 20,
	}
}

// cpuModel reads the model name the kernel reports ("" if unavailable).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// cacheSizes reads cpu0's cache hierarchy as reported by sysfs, keyed
// like "L1d", "L2", "L3".
func cacheSizes() map[string]string {
	out := map[string]string{}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		level := readTrim(filepath.Join(d, "level"))
		typ := readTrim(filepath.Join(d, "type"))
		size := readTrim(filepath.Join(d, "size"))
		if level == "" || size == "" {
			continue
		}
		key := "L" + level
		switch typ {
		case "Data":
			key += "d"
		case "Instruction":
			key += "i"
		}
		out[key] = size
	}
	return out
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// compareMain compares two saved outputs of perfbench (the "record"
// line of each). It prints every metric's change and flags any host
// metadata difference; differing hosts make it exit 2 unless -force.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	force := fs.Bool("force", false, "compare even when host metadata differs")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-force] old.out new.out")
		return 2
	}
	a, err := readRecord(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	b, err := readRecord(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	diffs := hostDiffs(a.Host, b.Host)
	for _, d := range diffs {
		fmt.Printf("HOST DIFFERS %s\n", d)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		fmt.Printf("RUN DIFFERS workload %s/%v vs %s/%v\n", a.Workload, a.Trace, b.Workload, b.Trace)
	}
	names := make([]string, 0, len(a.Metrics))
	for n := range a.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ma := a.Metrics[n]
		mb, ok := b.Metrics[n]
		if !ok {
			fmt.Printf("%-40s %14.6g -> (missing)\n", n, ma.Value)
			continue
		}
		rel := math.NaN()
		if ma.Value != 0 {
			rel = (mb.Value - ma.Value) / ma.Value
		}
		fmt.Printf("%-40s %14.6g -> %14.6g %-8s %+7.1f%%\n", n, ma.Value, mb.Value, ma.Unit, 100*rel)
	}
	fmt.Printf("fail_ratio %g -> %g\n", a.FailRatio, b.FailRatio)
	if len(diffs) > 0 && !*force {
		fmt.Fprintln(os.Stderr, "host metadata differs; rerun with -force to accept the comparison")
		return 2
	}
	return 0
}

func readRecord(path string) (record, error) {
	var rec record
	f, err := os.Open(path)
	if err != nil {
		return rec, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	found := false
	for sc.Scan() {
		if body, ok := strings.CutPrefix(sc.Text(), "record "); ok {
			if err := json.Unmarshal([]byte(body), &rec); err != nil {
				return rec, fmt.Errorf("%s: %w", path, err)
			}
			found = true
		}
	}
	if err := sc.Err(); err != nil {
		return rec, fmt.Errorf("%s: %w", path, err)
	}
	if !found {
		return rec, fmt.Errorf("%s: no record line", path)
	}
	return rec, nil
}

// hostDiffs lists the host metadata fields that differ.
func hostDiffs(a, b hostInfo) []string {
	var d []string
	add := func(name string, x, y any) {
		if fmt.Sprint(x) != fmt.Sprint(y) {
			d = append(d, fmt.Sprintf("%s: %v vs %v", name, x, y))
		}
	}
	add("cpu_model", a.CPUModel, b.CPUModel)
	add("nproc", a.NProc, b.NProc)
	add("gomaxprocs", a.GOMAXPROCS, b.GOMAXPROCS)
	add("go_version", a.GoVersion, b.GoVersion)
	add("goarch", a.GOARCH, b.GOARCH)
	add("caches", a.Caches, b.Caches) // fmt prints maps sorted by key
	add("sum_exact_pool_mib", a.PoolMiB, b.PoolMiB)
	return d
}
