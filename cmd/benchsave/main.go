package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// row is one measured checkout. Times are wall seconds.
type row struct {
	Label      string  `json:"label"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	AllTinyJ1  float64 `json:"all_tiny_j1_s"`
	AllTinyJ0  float64 `json:"all_tiny_j0_s"`
	AllTinySHA string  `json:"all_tiny_stdout_sha256"`
	GoTest     float64 `json:"go_test_s"`
	MakeRace   float64 `json:"make_race_s"`
}

type trajectory struct {
	Note string `json:"note"`
	Rows []row  `json:"rows"`
}

// trajectoryFile is the row file, relative to the working directory.
const trajectoryFile = "BENCH_e2e.json"

const note = "Host wall seconds from `make bench-save` (cmd/benchsave); go test and make race run with GOFLAGS=-count=1. Rows compare only within one host. Recorded, never gated."

func main() {
	label := flag.String("label", "change", "row label; an existing row with this label is replaced")
	dir := flag.String("dir", ".", "checkout to measure")
	flag.Parse()
	r, err := measure(*label, *dir)
	if err == nil {
		err = save(trajectoryFile, r)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsave:", err)
		os.Exit(1)
	}
	fmt.Printf("%s (%s): -all tiny -j1 %.1fs, -j0 %.1fs; go test %.1fs; make race %.1fs\n",
		r.Label, r.Commit, r.AllTinyJ1, r.AllTinyJ0, r.GoTest, r.MakeRace)
}

func measure(label, dir string) (row, error) {
	r := row{
		Label:      label,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	commit, err := output(dir, nil, "git", "describe", "--always", "--dirty")
	if err != nil {
		return r, err
	}
	r.Commit = strings.TrimSpace(string(commit))
	gover, err := output(dir, nil, "go", "env", "GOVERSION")
	if err != nil {
		return r, err
	}
	r.GoVersion = strings.TrimSpace(string(gover))

	tmp, err := os.MkdirTemp("", "benchsave")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(tmp)
	pb := filepath.Join(tmp, "paperbench")
	if _, err := output(dir, nil, "go", "build", "-o", pb, "./cmd/paperbench"); err != nil {
		return r, err
	}
	var j1, j0 []byte
	if r.AllTinyJ1, j1, err = timed(dir, nil, pb, "-all", "-scale", "tiny", "-j", "1"); err != nil {
		return r, err
	}
	if r.AllTinyJ0, j0, err = timed(dir, nil, pb, "-all", "-scale", "tiny", "-j", "0"); err != nil {
		return r, err
	}
	if !bytes.Equal(j1, j0) {
		return r, errors.New("paperbench -all -scale tiny stdout differs between -j 1 and -j 0")
	}
	sum := sha256.Sum256(j1)
	r.AllTinySHA = hex.EncodeToString(sum[:])
	uncached := []string{"GOFLAGS=-count=1"}
	if r.GoTest, _, err = timed(dir, uncached, "go", "test", "./..."); err != nil {
		return r, err
	}
	if r.MakeRace, _, err = timed(dir, uncached, "make", "race"); err != nil {
		return r, err
	}
	return r, nil
}

// timed runs a command in dir and returns its wall seconds and stdout.
func timed(dir string, env []string, name string, args ...string) (float64, []byte, error) {
	start := time.Now()
	out, err := output(dir, env, name, args...)
	return time.Since(start).Seconds(), out, err
}

// output runs a command in dir with env appended to the inherited
// environment, passing its stderr through, and returns its stdout. A
// failed command's stdout (a test failure report) goes to stderr.
func output(dir string, env []string, name string, args ...string) ([]byte, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), env...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		os.Stderr.Write(out)
		return nil, fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
	}
	return out, nil
}

// save replaces the row labelled r.Label in the trajectory file, or
// appends r, creating the file if needed.
func save(path string, r row) error {
	t := trajectory{Note: note}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &t); err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	replaced := false
	for i := range t.Rows {
		if t.Rows[i].Label == r.Label {
			t.Rows[i], replaced = r, true
		}
	}
	if !replaced {
		t.Rows = append(t.Rows, r)
	}
	data, err = json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
