package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestRepoIsClean is the acceptance gate: one hmpivet invocation over
// the whole tree covers every Go package and every shipped .mpc model
// (directory walks sweep models too) and must report nothing. A new
// finding anywhere in the repo fails tier-1 here.
func TestRepoIsClean(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{filepath.Join("..", "..")}, "", false, false, &out); code != 0 {
		t.Fatalf("hmpivet found violations in the repo (exit %d):\n%s", code, out.String())
	}
}

// TestSeededGoViolation proves the Go analyzers actually fire: a leaked
// group seeded into a scratch package must flag and exit non-zero.
func TestSeededGoViolation(t *testing.T) {
	dir := t.TempDir()
	src := `package scratch

type Group struct{}

type Process struct{}

func (h *Process) GroupCreate(m any) (*Group, error) { return nil, nil }

func (g *Group) Rank() int { return 0 }

func leak(h *Process) {
	g, _ := h.GroupCreate(nil)
	_ = g.Rank()
}
`
	if err := os.WriteFile(filepath.Join(dir, "scratch.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code := run([]string{dir}, "", false, false, &out)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "never freed") {
		t.Fatalf("missing groupfree finding:\n%s", out.String())
	}
}

// TestSeededModelViolation proves the model front fires: a
// self-communicating scheme must flag and exit non-zero — both when the
// model is named directly and when it is only swept up by a directory
// walk.
func TestSeededModelViolation(t *testing.T) {
	dir := t.TempDir()
	src := `algorithm Bad(int p) {
  coord I=p;
  node {I>=0: bench*(1);};
  scheme {
    100%%[0]->[0];
  };
}
`
	path := filepath.Join(dir, "bad.mpc")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code := run([]string{path}, "", false, false, &out)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "selfcomm") {
		t.Fatalf("missing selfcomm finding:\n%s", out.String())
	}

	// The same violation must surface from a walk of the parent
	// directory, without naming the model.
	out.Reset()
	code = run([]string{dir}, "", false, false, &out)
	if code != 1 {
		t.Fatalf("directory walk exit = %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "selfcomm") {
		t.Fatalf("directory walk missed the model finding:\n%s", out.String())
	}
}

// TestOnlySelectsAnalyzers pins -only: with groupfree excluded, the
// seeded leak must pass.
func TestOnlySelectsAnalyzers(t *testing.T) {
	dir := t.TempDir()
	src := `package scratch

type Group struct{}

type Process struct{}

func (h *Process) GroupCreate(m any) (*Group, error) { return nil, nil }

func (g *Group) Rank() int { return 0 }

func leak(h *Process) {
	g, _ := h.GroupCreate(nil)
	_ = g.Rank()
}
`
	if err := os.WriteFile(filepath.Join(dir, "scratch.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := run([]string{dir}, "tagconst", false, false, &out); code != 0 {
		t.Fatalf("-only tagconst still flagged (exit %d):\n%s", code, out.String())
	}
	if _, err := selectAnalyzers("nosuch"); err == nil {
		t.Fatal("unknown analyzer name must be rejected")
	}
}

// TestJSONGolden pins the machine-readable output: the seeded fixture
// package produces exactly the golden findings, byte for byte.
func TestJSONGolden(t *testing.T) {
	var out bytes.Buffer
	code := run([]string{filepath.Join("testdata", "seed")}, "", false, true, &out)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out.String())
	}
	golden := filepath.Join("testdata", "seed.golden.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Fatalf("-json output diverged from %s:\n--- got ---\n%s--- want ---\n%s", golden, out.String(), want)
	}
}

// TestJSONCleanTree pins the empty case: a clean tree yields an empty
// JSON array, not null.
func TestJSONCleanTree(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "ok.go"), []byte("package ok\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := run([]string{dir}, "", false, true, &out); code != 0 {
		t.Fatalf("exit = %d, want 0; output:\n%s", code, out.String())
	}
	if strings.TrimSpace(out.String()) != "[]" {
		t.Fatalf("clean tree must emit [], got:\n%s", out.String())
	}
}

// TestFileArgRejected pins that a lone .go file (or any root with
// nothing to analyze) is a usage error, not a silent clean exit.
func TestFileArgRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.go")
	if err := os.WriteFile(path, []byte("package x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := run([]string{path}, "", false, false, &out); code != 2 {
		t.Fatalf("file argument: exit = %d, want 2", code)
	}
	if code := run([]string{dir}, "", false, false, &out); code != 0 {
		t.Fatalf("directory with Go source: exit = %d, want 0", code)
	}
}

// TestAnalyzerRegistry pins the -list output — the analyzer names, in
// order — and that -only still selects the lifecycle analyzers by their
// own names: the names are the -only and //hmpivet:ignore spellings.
func TestAnalyzerRegistry(t *testing.T) {
	var out bytes.Buffer
	listAnalyzers(&out)
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	want := []string{
		"bufalias", "collmatch", "deadlock", "ftcontract", "groupfree", "reconpure",
		"reqwait", "retrycontract", "runtimeclose", "tagconst", "tracescope",
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("-list names = %v, want %v", names, want)
	}

	picked, err := selectAnalyzers("groupfree,reqwait,runtimeclose")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, a := range picked {
		got = append(got, a.Name)
	}
	if strings.Join(got, ",") != "groupfree,reqwait,runtimeclose" {
		t.Fatalf("-only groupfree,reqwait,runtimeclose selected %v", got)
	}

	// One violation per lifecycle analyzer plus a tagconst one: the
	// full run reports all four, the -only run exactly the three.
	dir := t.TempDir()
	src := `package scratch

import "repro/internal/hmpi"

type Group struct{}

type Request struct{}

type Comm struct{}

type Process struct{}

func (h *Process) GroupCreate(m any) (*Group, error) { return nil, nil }

func (c *Comm) Irecv(src, tag int) *Request { return nil }

func (c *Comm) Send(dst, tag int, data []byte) {}

func nextTag() int { return 7 }

func leaks(h *Process, c *Comm, cfg hmpi.Config) {
	g, _ := h.GroupCreate(nil)
	r := c.Irecv(0, 0)
	rt, _ := hmpi.New(cfg)
	c.Send(1, nextTag(), nil)
}
`
	if err := os.WriteFile(filepath.Join(dir, "scratch.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ only, want string }{
		{"", "groupfree,reqwait,runtimeclose,tagconst"},
		{"groupfree,reqwait,runtimeclose", "groupfree,reqwait,runtimeclose"},
	} {
		out.Reset()
		if code := run([]string{dir}, tc.only, false, false, &out); code != 1 {
			t.Fatalf("-only %q: exit = %d, want 1; output:\n%s", tc.only, code, out.String())
		}
		var fired []string
		for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
			fired = append(fired, strings.TrimSuffix(strings.Fields(line)[1], ":"))
		}
		sort.Strings(fired)
		if strings.Join(fired, ",") != tc.want {
			t.Fatalf("-only %q: findings by analyzer = %v, want %s:\n%s", tc.only, fired, tc.want, out.String())
		}
	}
}
