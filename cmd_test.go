package repro

// CLI integration tests: build each command once and exercise its main
// paths. These catch flag-wiring regressions the package tests cannot.

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

func binaries(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "repro-bins")
		if buildErr != nil {
			return
		}
		for _, cmd := range []string{"smtsim", "adts-sweep", "mixgen", "dtasm"} {
			out, err := exec.Command("go", "build", "-o", filepath.Join(binDir, cmd), "./cmd/"+cmd).CombinedOutput()
			if err != nil {
				buildErr = err
				t.Logf("building %s: %s", cmd, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Skipf("cannot build command binaries: %v", buildErr)
	}
	return binDir
}

func run(t *testing.T, name string, args ...string) string {
	t.Helper()
	out, err := exec.Command(filepath.Join(binaries(t), name), args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func TestCLIMixgen(t *testing.T) {
	out := run(t, "mixgen", "-list")
	if !strings.Contains(out, "kitchen-sink") {
		t.Fatalf("mixgen -list missing mixes:\n%s", out)
	}
	out = run(t, "mixgen", "-profiles")
	if !strings.Contains(out, "mcf") {
		t.Fatalf("mixgen -profiles missing catalogue:\n%s", out)
	}
	out = run(t, "mixgen", "-sample", "gzip", "-n", "50000")
	if !strings.Contains(out, "dynamic instruction mix") {
		t.Fatalf("mixgen -sample broken:\n%s", out)
	}
}

func TestCLISmtsim(t *testing.T) {
	out := run(t, "smtsim", "-mix", "int-compute", "-quanta", "4", "-fastforward", "2048")
	if !strings.Contains(out, "aggregate IPC") {
		t.Fatalf("smtsim fixed run broken:\n%s", out)
	}
	out = run(t, "smtsim", "-mix", "int-memory", "-mode", "adts", "-m", "4",
		"-quanta", "4", "-fastforward", "2048", "-timeline")
	if !strings.Contains(out, "detector:") || !strings.Contains(out, "quantum timeline") {
		t.Fatalf("smtsim adts run broken:\n%s", out)
	}
}

func TestCLISmtsimKernelAndMachine(t *testing.T) {
	dir := t.TempDir()
	kernel := filepath.Join(dir, "k.dt")
	src := run(t, "dtasm", "-dump", "type1")
	if err := os.WriteFile(kernel, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	machine := filepath.Join(dir, "m.json")
	if err := os.WriteFile(machine, []byte(`{"FetchThreads": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := run(t, "smtsim", "-mix", "int-memory", "-mode", "adts",
		"-kernel", kernel, "-machine", machine, "-quanta", "4", "-fastforward", "2048")
	if !strings.Contains(out, "detector kernel:") {
		t.Fatalf("kernel-driven smtsim broken:\n%s", out)
	}
}

func TestCLIDtasm(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t3.dt")
	src := run(t, "dtasm", "-dump", "type3")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out := run(t, "dtasm", "-check", path)
	if !strings.Contains(out, "OK") {
		t.Fatalf("dtasm -check broken:\n%s", out)
	}
	out = run(t, "dtasm", "-run", path, "-ipc", "0.5", "-l1miss", "0.4")
	if !strings.Contains(out, "switch ICOUNT -> L1MISSCOUNT") {
		t.Fatalf("dtasm -run routing wrong:\n%s", out)
	}
}

func TestCLIAdtsSweepCalibrate(t *testing.T) {
	if testing.Short() {
		t.Skip("slow CLI run")
	}
	out := run(t, "adts-sweep", "-calibrate", "-quanta", "4", "-intervals", "1",
		"-mixes", "int-compute")
	if !strings.Contains(out, "paper threshold") {
		t.Fatalf("adts-sweep -calibrate broken:\n%s", out)
	}
}

func TestCLISmtsimCSV(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "run.csv")
	run(t, "smtsim", "-mix", "int-compute", "-quanta", "3", "-fastforward", "1024", "-csv", csv)
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 4 || lines[0] != "quantum,policy,ipc" {
		t.Fatalf("bad CSV:\n%s", data)
	}
	if !strings.HasPrefix(lines[1], "0,ICOUNT,") {
		t.Fatalf("bad CSV row: %s", lines[1])
	}
}

// runStdout runs a binary capturing stdout only: adts-sweep's progress
// and resume hints tick on stderr and vary run to run, while stdout is
// deterministic.
func runStdout(t *testing.T, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(binaries(t), name), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstderr:\n%s", name, args, err, stderr.String())
	}
	return stdout.String()
}

// Regression: -mixes with spaces around the commas used to reject the
// trimmed-away names as unknown mixes.
func TestCLIAdtsSweepMixesTrimmed(t *testing.T) {
	if testing.Short() {
		t.Skip("slow CLI run")
	}
	out := run(t, "adts-sweep", "-calibrate", "-quanta", "2", "-intervals", "1",
		"-mixes", "int-compute, mixed-lowipc ,")
	if !strings.Contains(out, "paper threshold") {
		t.Fatalf("adts-sweep with spaced -mixes broken:\n%s", out)
	}
}

func TestCLIAdtsSweepJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("slow CLI run")
	}
	out := runStdout(t, "adts-sweep", "-table1", "-json", "-quanta", "2", "-intervals", "1",
		"-mixes", "int-compute")
	var doc struct {
		Table1 *struct {
			MeanIPC map[string]float64 `json:"MeanIPC"`
		} `json:"table1"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out)
	}
	if doc.Table1 == nil || len(doc.Table1.MeanIPC) != 10 {
		t.Fatalf("-json table1 export incomplete:\n%s", out)
	}
	if strings.Contains(out, "### ") {
		t.Fatalf("-json mode still printed markdown tables:\n%s", out)
	}
}

// TestCLIAdtsSweepCheckpointResume is the acceptance flow: interrupt a
// checkpointed -fig8 sweep mid-run, resume it, and require output
// byte-identical to an uninterrupted run.
func TestCLIAdtsSweepCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("slow CLI run")
	}
	ck := filepath.Join(t.TempDir(), "ckpt")
	args := []string{"-fig8", "-quanta", "2", "-intervals", "1",
		"-mixes", "int-compute,mixed-lowipc", "-workers", "1"}
	fresh := runStdout(t, "adts-sweep", args...)

	cmd := exec.Command(filepath.Join(binaries(t), "adts-sweep"),
		append(args, "-checkpoint", ck)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Interrupt once at least one run has been checkpointed.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if entries, _ := filepath.Glob(filepath.Join(ck, "cfg-*.json")); len(entries) > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		// The conventional interrupted status; a nil error means the
		// sweep won the race and finished first, which is also fine.
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 130 {
			t.Fatalf("interrupted sweep: %v\nstderr:\n%s", err, stderr.String())
		}
		if !strings.Contains(stderr.String(), "-resume") {
			t.Fatalf("interrupt did not print a resume hint:\n%s", stderr.String())
		}
	}

	resumed := runStdout(t, "adts-sweep", append(args, "-resume", ck)...)
	if resumed != fresh {
		t.Fatalf("resumed output differs from uninterrupted run:\nfresh:\n%s\nresumed:\n%s",
			fresh, resumed)
	}
}

// TestCLIAdtsSweepCheckpointRefusesNonEmptyDir: -checkpoint starts a
// fresh checkpoint, so a directory that already holds files is refused
// (never truncated or adopted) with a pointer to -resume.
func TestCLIAdtsSweepCheckpointRefusesNonEmptyDir(t *testing.T) {
	ck := t.TempDir()
	keep := filepath.Join(ck, "notes.txt")
	if err := os.WriteFile(keep, []byte("mine"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(filepath.Join(binaries(t), "adts-sweep"),
		"-table1", "-quanta", "1", "-intervals", "1", "-mixes", "int-compute",
		"-checkpoint", ck).CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("-checkpoint on a non-empty directory: err %v, want exit 1\n%s", err, out)
	}
	if !strings.Contains(string(out), "-resume") {
		t.Fatalf("refusal does not name -resume:\n%s", out)
	}
	if got, err := os.ReadFile(keep); err != nil || string(got) != "mine" {
		t.Fatalf("refused checkpoint touched the directory's files: %q, %v", got, err)
	}
}

// TestCLIAdtsSweepMaxRetriesZero: -max-retries 0 means one dispatch per
// run and no re-dispatch. Against a backend that fails every run, the
// sweep must POST exactly once and then fail, not retry until the
// backend is marked down and the run falls back to local execution.
func TestCLIAdtsSweepMaxRetriesZero(t *testing.T) {
	var posts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			w.Write([]byte(`{"status":"ok"}`))
		case "/v1/batch":
			posts.Add(1)
			http.Error(w, "boom", http.StatusInternalServerError)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	out, err := exec.Command(filepath.Join(binaries(t), "adts-sweep"),
		"-table1", "-mixes", "int-compute", "-quanta", "1", "-intervals", "1",
		"-threads", "2", "-workers", "1", "-backends", srv.URL, "-max-retries", "0").CombinedOutput()
	if err == nil {
		t.Fatalf("sweep against a failing backend exited 0 with -max-retries 0:\n%s", out)
	}
	if n := posts.Load(); n != 1 {
		t.Fatalf("POST /v1/batch %d times with -max-retries 0, want 1\n%s", n, out)
	}
}
