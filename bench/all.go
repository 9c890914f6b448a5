package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// resultFile is one result set: every run of every workload, with the host
// it was taken on. `-agree` compares two of them.
type resultFile struct {
	Host    hostInfo   `json:"host"`
	Seconds float64    `json:"seconds"`
	Trace   int        `json:"trace"`
	Smoke   bool       `json:"smoke,omitempty"`
	Runs    []runEntry `json:"runs"`
}

// runEntry is one child's result: the contract's last line plus the work
// counts the child printed.
type runEntry struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Skipped   string             `json:"skipped,omitempty"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]metric  `json:"metrics,omitempty"`
	Work      map[string]float64 `json:"work,omitempty"`
}

type allOptions struct {
	seed    int64
	seconds float64
	trace   int
	smoke   bool
	runs    int
	outDir  string
}

// runAll runs every workload in a child process of its own, one after the
// other, so no heap state leaks from one workload into the next and the
// peak resident set is each workload's own. It reports whether every run
// was correct.
func runAll(o allOptions) (bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return false, fmt.Errorf("locate own binary: %w", err)
	}
	file := resultFile{Host: readHostInfo(), Seconds: o.seconds, Trace: o.trace, Smoke: o.smoke}
	fmt.Printf("host: %d cores, GOMAXPROCS %d, %s, %s, calibration %.0f ns\n",
		file.Host.NProc, file.Host.GOMAXPROCS, file.Host.GoVersion, file.Host.CPUModel, file.Host.CalibrationNS)

	// The first process on a fresh VM pays first-touch page faults the
	// later ones do not; one discarded child absorbs them.
	if !o.smoke {
		fmt.Println("warm-up child (discarded)")
		warm := o
		warm.seconds, warm.trace = 0, 0
		if _, err := runChild(exe, workloads[0], o.seed, warm, false); err != nil {
			return false, fmt.Errorf("warm-up: %w", err)
		}
	}

	allCorrect := true
	for _, w := range workloads {
		for i := 0; i < o.runs; i++ {
			seed := o.seed + int64(i)
			if w.kind == sharded && runtime.NumCPU() < shardCount {
				reason := fmt.Sprintf("%d shards need %d cores, host has %d", shardCount, shardCount, runtime.NumCPU())
				fmt.Printf("workload %s skipped: %s\n", w.name, reason)
				file.Runs = append(file.Runs, runEntry{Workload: w.name, Seed: seed, Skipped: reason})
				continue
			}
			entry, err := runChild(exe, w, seed, o, true)
			if err != nil {
				return false, err
			}
			allCorrect = allCorrect && entry.Correct
			file.Runs = append(file.Runs, *entry)
		}
	}

	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return false, err
	}
	path := filepath.Join(o.outDir, "result.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Printf("result set written to %s\n", path)
	return allCorrect, nil
}

// runChild runs one workload once in a child process and parses what it
// printed: the work counts, and the JSON result on the last line.
func runChild(exe string, w workload, seed int64, o allOptions, echo bool) (*runEntry, error) {
	args := []string{
		"-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(o.trace),
		"-outdir", o.outDir,
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s child: %w", w.name, err)
	}
	entry := &runEntry{Workload: w.name, Seed: seed, Work: make(map[string]float64)}
	var last string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if fields := strings.Fields(line); len(fields) >= 2 && strings.HasPrefix(fields[0], "work.") {
			if v, err := strconv.ParseFloat(fields[1], 64); err == nil {
				entry.Work[fields[0]] = v
			}
		}
		if strings.HasPrefix(line, "{") {
			last = line
			continue
		}
		if echo {
			fmt.Println(line)
		}
	}
	// Wait also when the scan failed: the child must have ended before
	// this returns.
	waitErr := cmd.Wait()
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read %s child: %w", w.name, err)
	}
	var result struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	if last == "" || json.Unmarshal([]byte(last), &result) != nil {
		return nil, fmt.Errorf("%s child printed no result (exit: %v)", w.name, waitErr)
	}
	entry.Correct, entry.Attempted, entry.Failed, entry.Metrics = result.Correct, result.Attempted, result.Failed, result.Metrics
	return entry, nil
}
