package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// environment is recorded with every result so a reader can tell which
// machine, toolchain and source tree produced it.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	MemTotalMB float64 `json:"mem_total_mb"`
	// Commit is the VCS revision stamped into the binary, or "none"
	// when the checkout was not a repository at build time.
	Commit string `json:"commit"`
	// SourceHash digests every file under internal/ and cmd/ plus
	// go.mod, so two results can be matched to one tree without VCS.
	SourceHash string  `json:"source_hash"`
	CeilingMB  float64 `json:"oracle_rss_ceiling_mb"`
}

func recordEnvironment() environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		MemTotalMB: memTotalMB(),
		Commit:     commit(),
		SourceHash: sourceHash("."),
		CeilingMB:  oracleCeilingMB,
	}
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "none"
}

// memTotalMB reads MemTotal from /proc/meminfo; 0 when unavailable.
func memTotalMB() float64 {
	f, err := os.Open("/proc/meminfo")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "MemTotal:" {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// sourceHash hashes the program sources under root in a fixed order;
// "unavailable" when they cannot be read.
func sourceHash(root string) string {
	h := sha256.New()
	add := func(path string) error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(h, f)
		return err
	}
	walk := func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		return add(path)
	}
	for _, dir := range []string{"internal", "cmd"} {
		if err := filepath.WalkDir(filepath.Join(root, dir), walk); err != nil {
			return "unavailable"
		}
	}
	if err := add(filepath.Join(root, "go.mod")); err != nil {
		return "unavailable"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// hostStealSeconds is the machine's total steal time so far, from the
// "cpu" line of /proc/stat (in USER_HZ ticks, 100 a second); 0 when
// unavailable.
func hostStealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(fields[8], 64)
	return ticks / 100
}
