package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// rssPoll is how often a watched child's resident set is sampled. At
// the oracle's allocation rates (about 1.5 GB/s at worst) a child can
// overshoot its ceiling by a few tens of MB between samples.
const rssPoll = 5 * time.Millisecond

// readyLine is what every child prints once it has finished its set-up,
// followed by the CPU seconds the set-up used.
const readyLine = "ready"

// announceReady prints the ready line with this process's CPU time so far.
func announceReady(w io.Writer) {
	fmt.Fprintln(w, readyLine, processCPU(0).Seconds())
}

// processCPU is the CPU time process pid (0: this process) has used so
// far, all its threads together, read from the kernel's CPU clock for
// the process with nanosecond resolution; 0 if it cannot be read. On a
// virtual machine whose host lends its CPUs to other guests, wall time
// grows by the time a CPU was taken away (steal); CPU time does not.
func processCPU(pid int) time.Duration {
	var ts syscall.Timespec
	clock := ^uintptr(pid)<<3 | 2 // MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// procResult is what one watched child process did.
type procResult struct {
	// Ready is the time from start until the child printed readyLine;
	// zero if it never did.
	Ready time.Duration
	// ReadyCPU is the CPU time the child reported on its ready line.
	ReadyCPU time.Duration
	// Wall is the time from start until the child exited.
	Wall time.Duration
	// Out is the child's standard output after the ready line.
	Out []byte
	// PeakRSSMB is the child's resident-set high-water mark as last
	// sampled. A child that reports its own peak on exit is more exact.
	PeakRSSMB float64
	// OverCeiling reports that the child passed the RSS ceiling and
	// was killed.
	OverCeiling bool
	// Err is non-nil when the child failed for any reason.
	Err error
}

// runWatched runs cmd to completion, killing it if its resident set
// passes ceilingMB (0 = no ceiling) or it outlives timeout. It always
// waits for the child to exit before returning.
func runWatched(cmd *exec.Cmd, ceilingMB float64, timeout time.Duration) procResult {
	var res procResult
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		res.Err = err
		return res
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		res.Err = err
		return res
	}

	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		br := bufio.NewReader(pipe)
		line, err := br.ReadString('\n')
		ready := time.Since(start)
		f := strings.Fields(line)
		var cpu float64
		ok := err == nil && len(f) == 2 && f[0] == readyLine
		if ok {
			cpu, err = strconv.ParseFloat(f[1], 64)
			ok = err == nil
		}
		if !ok {
			res.Out = []byte(line)
		} else {
			res.Ready = ready
			res.ReadyCPU = time.Duration(cpu * float64(time.Second))
		}
		rest, _ := io.ReadAll(br)
		res.Out = append(res.Out, rest...)
	}()

	stop := make(chan struct{})
	watchDone := make(chan killReason)
	go func() { watchDone <- watch(cmd.Process, ceilingMB, start.Add(timeout), stop, &res) }()

	<-readDone
	waitErr := cmd.Wait()
	res.Wall = time.Since(start)
	close(stop)
	reason := <-watchDone

	switch {
	case reason.text != "":
		res.OverCeiling = reason.overCeiling
		res.Err = errors.New(reason.text)
	case waitErr != nil:
		res.Err = fmt.Errorf("%v: %s", waitErr, lastLine(stderr.String()))
	case res.Ready == 0:
		res.Err = errors.New("child exited without reporting ready")
	}
	return res
}

// killReason says why watch killed a child; text is empty if it did not.
type killReason struct {
	text        string
	overCeiling bool
}

// watch samples p's resident set until stop closes, keeping its
// high-water mark in res, and kills p when it passes ceilingMB or the
// deadline passes.
func watch(p *os.Process, ceilingMB float64, deadline time.Time, stop <-chan struct{}, res *procResult) killReason {
	tick := time.NewTicker(rssPoll)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return killReason{}
		case now := <-tick.C:
			var reason killReason
			rss, hwm := memoryMB(strconv.Itoa(p.Pid))
			res.PeakRSSMB = max(res.PeakRSSMB, hwm)
			if ceilingMB > 0 && rss > ceilingMB {
				reason = killReason{fmt.Sprintf("RSS %.0f MB passed the %.0f MB ceiling", rss, ceilingMB), true}
			} else if now.After(deadline) {
				reason = killReason{text: "timed out"}
			}
			if reason.text != "" {
				_ = p.Kill() // the process may already have exited; Wait reports that
				<-stop
				return reason
			}
		}
	}
}

// memoryMB reads a process's current resident set and its high-water
// mark from /proc/<pid>/status ("self" for this process); zeros when
// they cannot be read. The high-water mark belongs to the address space,
// so unlike rusage it does not inherit the parent's size across exec.
func memoryMB(pid string) (rss, hwm float64) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		kb, _ := strconv.ParseFloat(fields[1], 64)
		switch fields[0] {
		case "VmRSS:":
			rss = kb / 1024
		case "VmHWM:":
			hwm = kb / 1024
		}
	}
	return rss, hwm
}

// selfPeakMB is this process's resident-set high-water mark.
func selfPeakMB() float64 {
	_, hwm := memoryMB("self")
	return hwm
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// sampleRSS samples pid's resident set every interval until the
// returned stop function is called; stop returns the samples.
func sampleRSS(pid int, every time.Duration) (stop func() []float64) {
	done := make(chan struct{})
	out := make(chan []float64)
	go func() {
		var xs []float64
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-done:
				out <- xs
				return
			case <-tick.C:
				if rss, _ := memoryMB(strconv.Itoa(pid)); rss > 0 {
					xs = append(xs, rss)
				}
			}
		}
	}()
	return func() []float64 {
		close(done)
		return <-out
	}
}
