package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// stamp identifies the machine, toolchain and code a result came from.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	// Commit is the git HEAD when the benchmark runs inside a git
	// checkout, else "unknown"; SourceSHA256 identifies the code either
	// way: a digest over every .go, go.mod and .yatl file of the tree.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func newStamp(root, wl string, seed uint64, seconds, trace int) stamp {
	return stamp{
		Workload: wl, Seed: seed, Seconds: seconds, Trace: trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: cpuModel(), Commit: gitCommit(root), SourceSHA256: sourceDigest(root),
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
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if n := d.Name(); p != root && (strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(p) {
		case ".go", ".mod", ".yatl":
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		if f, err := os.Open(p); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
