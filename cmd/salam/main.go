// Command salam is the static-inspection front door: one binary, one
// kernel resolver, one usage and exit path for the tools that look at a
// kernel or a config without running a timed simulation.
//
//	salam ll       print, verify, optimize, elaborate or interpret IR
//	salam config   validate, summarize and re-emit SoC config documents
//	salam analyze  static bounds, schedules and memory findings of a kernel
//	salam trace    the Aladdin-style trace-based baseline flow
//
// The subcommands that take a built-in kernel share -kernel and -preset,
// resolved through the kernels catalog: a name or preset the catalog does
// not know is rejected with the catalog's error. `salam <subcommand> -h`
// lists a subcommand's flags. Exit status 2 is a bad invocation, 1 a
// failed run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"gosalam/kernels"
)

// usageError marks a bad invocation as opposed to a failed run.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run dispatches one invocation and returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	commands := map[string]func(args []string, stdout, stderr io.Writer) error{
		"ll": runLL, "config": runConfig, "analyze": runAnalyze, "trace": runTrace,
	}
	if len(args) == 0 || commands[args[0]] == nil {
		fmt.Fprintln(stderr, "usage: salam ll|config|analyze|trace [flags]   (salam <subcommand> -h lists the flags)")
		return 2
	}
	err := commands[args[0]](args[1:], stdout, stderr)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	fmt.Fprintf(stderr, "salam %s: %v\n", args[0], err)
	if errors.As(err, &usageError{}) {
		return 2
	}
	return 1
}

// target is the built-in kernel a subcommand works on: the -kernel and
// -preset flags every kernel-taking subcommand shares.
type target struct {
	kernel, preset string
	def            kernels.Preset
}

// newFlags starts a subcommand's flag set with the shared kernel flags.
// def is the preset the subcommand documents as its default.
func newFlags(name string, stderr io.Writer, def kernels.Preset) (*flag.FlagSet, *target) {
	fs := flag.NewFlagSet("salam "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	t := &target{def: def}
	fs.StringVar(&t.kernel, "kernel", "", "built-in kernel name (e.g. gemm, fft, spmv)")
	fs.StringVar(&t.preset, "preset", "", "workload preset: small, default, micro or large (default "+def.String()+")")
	return fs, t
}

// seedFlag and portsFlag declare the other two flags that more than one
// subcommand takes.
func seedFlag(fs *flag.FlagSet) *int64 { return fs.Int64("seed", 1, "dataset seed") }

func portsFlag(fs *flag.FlagSet, def int, usage string) *int { return fs.Int("ports", def, usage) }

// parsePreset resolves the -preset spelling.
func (t *target) parsePreset() (kernels.Preset, error) {
	p, err := kernels.ParsePreset(t.preset, t.def)
	if err != nil {
		return 0, usageError{err}
	}
	return p, nil
}

// resolve builds the catalog's kernel for -kernel and -preset.
func (t *target) resolve() (*kernels.Kernel, error) {
	p, err := t.parsePreset()
	if err != nil {
		return nil, err
	}
	k, err := kernels.Lookup(p, t.kernel)
	if err != nil {
		return nil, usageError{err}
	}
	return k, nil
}
