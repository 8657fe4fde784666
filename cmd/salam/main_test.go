package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

// invoke runs one invocation in-process.
func invoke(args ...string) (stdout, stderr string, status int) {
	var out, errb bytes.Buffer
	status = run(args, &out, &errb)
	return out.String(), errb.String(), status
}

// TestSubcommandsMatchStandaloneTools pins each subcommand's stdout to the
// bytes the standalone tool it replaced (salam-ll, salam-config,
// salam-analyze, salam-trace) printed for the same arguments.
func TestSubcommandsMatchStandaloneTools(t *testing.T) {
	for _, c := range []struct{ args, sha string }{
		{"ll -kernel gemm", "65f2c37e150e9740141efc9906c7f98b48e4471640d3d34158db5f16038f4557"},
		{"config emit ../../configs/gemm_spm.json", "bc25026bd08cc1bfe4ec9e43f0d79fbf6f6dfa0b975ca9e71840a478f3979b5c"},
		{"analyze -kernel gemm -json", "50e89acbd5de10fca1810d056401d48e0dd97bdaed6a3a1832aa79b72bcfda3d"},
		{"trace -kernel gemm", "75192e1dfa8877300a8e4f9e334925a5dcfcc7ce615bf80ddbbb5fc0e850f27a"},
	} {
		out, errOut, status := invoke(strings.Fields(c.args)...)
		if status != 0 || out == "" {
			t.Errorf("salam %s: exit %d, %d bytes; stderr: %s", c.args, status, len(out), errOut)
		} else if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != c.sha {
			t.Errorf("salam %s: stdout sha256 %s, want %s:\n%s", c.args, got, c.sha, out)
		}
	}
}

// TestOneKernelResolver: every kernel-taking subcommand accepts the same
// four preset spellings, honours them, and rejects anything else — and
// any unknown kernel — with the catalog's error and exit status 2.
func TestOneKernelResolver(t *testing.T) {
	for _, sub := range []string{"ll", "analyze", "trace"} {
		seen := map[string]string{}
		for _, preset := range []string{"small", "default", "micro"} {
			out, errOut, status := invoke(sub, "-kernel", "gemm", "-preset", preset)
			if status != 0 {
				t.Fatalf("salam %s -preset %s: exit %d: %s", sub, preset, status, errOut)
			}
			if other, dup := seen[out]; dup {
				t.Errorf("salam %s prints the same bytes for -preset %s and %s", sub, preset, other)
			}
			seen[out] = preset
		}
		for _, bad := range [][]string{{"-kernel", "gemm", "-preset", "huge"}, {"-kernel", "nope"}, {"-nope"}} {
			out, errOut, status := invoke(append([]string{sub}, bad...)...)
			if status != 2 || out != "" || !strings.Contains(errOut, "salam "+sub+": ") {
				t.Errorf("salam %s %v: exit %d, stdout %q, stderr %q", sub, bad, status, out, errOut)
			}
		}
	}
	if _, errOut, _ := invoke("analyze", "-kernel", "gemm", "-preset", "huge"); !strings.Contains(errOut, `unknown preset "huge" (want small, default, micro, large)`) {
		t.Errorf("preset error is not the catalog's: %s", errOut)
	}
	if out, _, status := invoke("analyze", "-all", "-preset", "large"); status != 0 || strings.Count(out, "\n") != 18 {
		t.Errorf("analyze -all -preset large: exit %d, output:\n%s", status, out)
	}
	for _, args := range [][]string{nil, {"nope"}, {"config"}, {"config", "emit"}, {"ll"}, {"analyze"}, {"trace"}} {
		if _, errOut, status := invoke(args...); status != 2 || errOut == "" {
			t.Errorf("salam %v: exit %d, stderr %q; want a usage error", args, status, errOut)
		}
	}
	if _, _, status := invoke("config", "validate", "../../testdata/config/bad_spm_bank.json"); status != 1 {
		t.Errorf("config validate of a bad document: exit %d, want 1", status)
	}
}
