package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo is recorded in every result file so two files taken on different
// hosts are never compared as if they were one series.
type hostInfo struct {
	NProc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	CPUModel      string  `json:"cpu_model"`
	CalibrationNS float64 `json:"calibration_ns"`
}

func readHostInfo() hostInfo {
	return hostInfo{
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    benchProcs(),
		GoVersion:     runtime.Version(),
		CPUModel:      cpuModel(),
		CalibrationNS: calibrate(),
	}
}

// benchProcs is the GOMAXPROCS every run uses: the cores the host has, two
// at most.
func benchProcs() int { return min(runtime.NumCPU(), maxProcs) }

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, value, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

// calibrationSink keeps the calibration loop's result alive so the compiler
// cannot remove the loop.
var calibrationSink uint64

// calibrate times a fixed integer loop (xorshift, no memory traffic) and
// returns the best of three in nanoseconds: a cross-host normaliser for the
// wall-clock metrics, independent of anything in the repository.
func calibrate() float64 {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		x := uint64(88172645463325252)
		start := time.Now()
		for j := 0; j < 20_000_000; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		if d := time.Since(start); d < best {
			best = d
		}
		calibrationSink += x
	}
	return float64(best.Nanoseconds())
}

// meter is a reading of the process counters a pass is charged with.
type meter struct {
	at         time.Time
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	userCPU    float64
	sysCPU     float64
	gcCPU      float64
	totalCPU   float64
	steal      float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// readMeter samples allocation, GC and CPU counters. ReadMemStats stops the
// world, so the clock is read on the pass's side of that pause: last when
// opening a pass, first when closing it.
func readMeter(closing bool) meter {
	var m meter
	if closing {
		m.at = time.Now()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.allocBytes, m.mallocs, m.gcCycles = ms.TotalAlloc, ms.Mallocs, ms.NumGC
	m.userCPU, m.sysCPU = cpuSeconds()
	samples := append([]metrics.Sample(nil), cpuSamples...)
	metrics.Read(samples)
	m.gcCPU, m.totalCPU = samples[0].Value.Float64(), samples[1].Value.Float64()
	m.steal = stealSeconds()
	if !closing {
		m.at = time.Now()
	}
	return m
}

// cost is what happened between two meter readings.
type cost struct {
	wallNS     float64
	allocBytes float64
	mallocs    float64
	gcCycles   float64
	userCPU    float64 // seconds, like every CPU figure below
	sysCPU     float64
	gcCPU      float64
	totalCPU   float64
	steal      float64
}

func (m meter) since(open meter) cost {
	return cost{
		wallNS:     float64(m.at.Sub(open.at).Nanoseconds()),
		allocBytes: float64(m.allocBytes - open.allocBytes),
		mallocs:    float64(m.mallocs - open.mallocs),
		gcCycles:   float64(m.gcCycles - open.gcCycles),
		userCPU:    m.userCPU - open.userCPU,
		sysCPU:     m.sysCPU - open.sysCPU,
		gcCPU:      m.gcCPU - open.gcCPU,
		totalCPU:   m.totalCPU - open.totalCPU,
		steal:      m.steal - open.steal,
	}
}

// addTo writes the cost into a span's counts.
func (c cost) addTo(n map[string]float64) {
	n["wall_ns"] = c.wallNS
	n["alloc_bytes"] = c.allocBytes
	n["mallocs"] = c.mallocs
	n["gc_cycles"] = c.gcCycles
	n["cpu_user_s"] = c.userCPU
	n["cpu_sys_s"] = c.sysCPU
	n["gc_cpu_s"] = c.gcCPU
	n["total_cpu_s"] = c.totalCPU
	n["steal_s"] = c.steal
}

// cpuSeconds returns the process's user and system CPU seconds.
func cpuSeconds() (user, sys float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime), tv(ru.Stime)
}

// peakRSSMB is the high-water mark of this process image's resident set
// (VmHWM). ru_maxrss would not do: it survives exec, so under `go run` it
// starts at the go command's own footprint.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if fields := strings.Fields(line); len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// stealSeconds is the time the hypervisor ran something else while this VM
// had work to do, summed over its CPUs (the eighth field of /proc/stat's
// cpu line, in ticks of 10 ms). 0 where the file is missing.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}
