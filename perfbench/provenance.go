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

// provenance stamps every benchmark output with what was measured and
// where. Commit and Dirty come from git when the working directory is
// the top of a git checkout and read "unknown" otherwise; SourceSHA256
// identifies the measured Go sources either way.
type provenance struct {
	Commit       string `json:"commit"`
	Dirty        string `json:"dirty"`
	SourceSHA256 string `json:"source_sha256"`
	GoVersion    string `json:"go_version"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"nproc"`
	CPUModel     string `json:"cpu_model"`
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
}

func stamp(workload string, seed int64) provenance {
	p := provenance{
		Commit:       "unknown",
		Dirty:        "unknown",
		SourceSHA256: sourceDigest("."),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		CPUModel:     cpuModel(),
		Workload:     workload,
		Seed:         seed,
	}
	wd, err := os.Getwd()
	if err != nil {
		return p
	}
	// The ceiling keeps git from finding a repository above the working
	// directory: a checkout without .git stays "unknown".
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	if head, err := git("rev-parse", "HEAD"); err == nil {
		p.Commit = head
	}
	if status, err := git("status", "--porcelain", "--untracked-files=no"); err == nil {
		p.Dirty = "false"
		if status != "" {
			p.Dirty = "true"
		}
	}
	return p
}

// sourceDigest hashes the path and content of every Go source and module
// file under root, in path order, skipping build output and VCS data.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry simply drops out of the digest
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
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
