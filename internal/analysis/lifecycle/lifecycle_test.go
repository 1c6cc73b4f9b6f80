package lifecycle_test

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/lifecycle"
)

func TestGroupFree(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "groupfree", "src", "a"), lifecycle.GroupFree)
}

func TestGroupFreeCrossPackage(t *testing.T) {
	analysistest.RunRoot(t, filepath.Join("testdata", "groupfree", "crosspkg"), lifecycle.GroupFree)
}

func TestReqWait(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "reqwait", "src", "a"), lifecycle.ReqWait)
}

func TestRuntimeClose(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "runtimeclose", "src", "a"), lifecycle.RuntimeClose)
}

func TestReqWaitCrossPackage(t *testing.T) {
	analysistest.RunRoot(t, filepath.Join("testdata", "reqwait", "crosspkg"), lifecycle.ReqWait)
}
