// Package soccfg defines the versioned declarative SoC configuration
// schema — the counterpart of gem5-SALAM's gem5-python system
// configuration scripts. A config file describes a simulation without Go
// code: version 0 is the flat single-accelerator form (kernel + device
// knobs + memory mode), version 1 describes full topologies — SPMs shared
// between accelerators, clusters with local crossbars, DMA engines,
// stream links, an LLC — covering every system shape constructed in
// system.go and internal/experiments.
//
// Decoding is strict: unknown fields are errors with full field paths and
// typo hints (see Unmarshal), and Validate range-checks every knob with
// the same path diagnostics. The schema deliberately contains no
// behavior; salam.BuildFromConfig (root package) turns a validated Config
// into a live SoC.
package soccfg

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gosalam/internal/hw"
	"gosalam/kernels"
)

// DeviceCfg is the per-accelerator device configuration (paper Sec.
// III-B): clock, port counts, queue depths, and FU constraints. Zero
// values mean "engine default".
type DeviceCfg struct {
	ClockMHz       float64        `json:"clock_mhz,omitempty"`
	ReadPorts      int            `json:"read_ports,omitempty"`
	WritePorts     int            `json:"write_ports,omitempty"`
	MaxOutstanding int            `json:"max_outstanding,omitempty"`
	ResQueue       int            `json:"res_queue,omitempty"`
	PipelineLoops  *bool          `json:"pipeline_loops,omitempty"`
	FULimits       map[string]int `json:"fu_limits,omitempty"`
}

// MemoryCfg is the flat-form memory configuration: scratchpad geometry or
// cache shape, selected by Memory.
type MemoryCfg struct {
	Memory     string `json:"memory,omitempty"` // "spm" (default) or "cache"
	SPMLatency int    `json:"spm_latency,omitempty"`
	SPMBanks   int    `json:"spm_banks,omitempty"`
	SPMPorts   int    `json:"spm_ports,omitempty"`
	CacheBytes int    `json:"cache_bytes,omitempty"`
	CacheLine  int    `json:"cache_line,omitempty"`
	CacheAssoc int    `json:"cache_assoc,omitempty"`
	CacheMSHRs int    `json:"cache_mshrs,omitempty"`
}

// KernelRef selects what an accelerator executes: a built-in kernel by
// name (at a preset or explicit size), or external LLVM IR (clang
// `-O1 -S -emit-llvm` output) bound to a built-in workload for input data
// and result checking.
type KernelRef struct {
	Kernel string `json:"kernel,omitempty"`
	Preset string `json:"preset,omitempty"` // small | default | micro | large
	Size   []int  `json:"size,omitempty"`   // explicit constructor arguments

	IRFile   string `json:"ir_file,omitempty"`  // path to a .ll file (relative to the config)
	Entry    string `json:"entry,omitempty"`    // function to simulate (defaults to workload name)
	Workload string `json:"workload,omitempty"` // built-in kernel supplying Setup/Check
}

// Config is the root of a configuration document.
type Config struct {
	Version int `json:"version,omitempty"` // 0 = flat single-accelerator, 1 = soc topology

	// Flat form (version 0).
	KernelRef
	Seed int64 `json:"seed,omitempty"`
	DeviceCfg
	MemoryCfg

	// Topology form (version 1).
	SoC *SoCCfg `json:"soc,omitempty"`

	// Dir is the directory the config was loaded from; relative ir_file
	// paths resolve against it. Not part of the document.
	Dir string `json:"-"`
}

// SoCCfg describes a full system topology.
type SoCCfg struct {
	DRAMMB    int          `json:"dram_mb,omitempty"`    // default 16
	XbarWidth int          `json:"xbar_width,omitempty"` // global crossbar requests/cycle, default 8
	LLC       *LLCCfg      `json:"llc,omitempty"`
	SPMs      []SPMCfg     `json:"spms,omitempty"`
	Clusters  []ClusterCfg `json:"clusters,omitempty"`
	Accels    []AccelCfg   `json:"accelerators"`
	DMAs      []DMACfg     `json:"dmas,omitempty"`
	Streams   []StreamCfg  `json:"streams,omitempty"`
}

// SPMCfg is a named scratchpad, shareable between accelerators.
type SPMCfg struct {
	Name    string `json:"name"`
	Bytes   uint64 `json:"bytes"`
	Latency int    `json:"latency,omitempty"` // default 2
	Banks   int    `json:"banks,omitempty"`   // default 4
	Ports   int    `json:"ports,omitempty"`   // default 4
}

// LLCCfg inserts a shared last-level cache between the global crossbar
// and DRAM.
type LLCCfg struct {
	Bytes int `json:"bytes"`
	Line  int `json:"line,omitempty"`  // default 64
	Assoc int `json:"assoc,omitempty"` // default 4
}

// ClusterCfg is an accelerator cluster: a local crossbar, optionally a
// cluster-shared scratchpad, and a cluster DMA engine.
type ClusterCfg struct {
	Name           string `json:"name"`
	SharedSPMBytes uint64 `json:"shared_spm_bytes,omitempty"`
	SPMLatency     int    `json:"spm_latency,omitempty"` // default 2
	SPMBanks       int    `json:"spm_banks,omitempty"`   // default 4
	SPMPorts       int    `json:"spm_ports,omitempty"`   // default 4
	XbarWidth      int    `json:"xbar_width,omitempty"`  // default 8
}

// AccelCfg is one accelerator: what it runs, its device knobs, and how
// its local memory is wired.
type AccelCfg struct {
	Name string `json:"name"`
	KernelRef
	DeviceCfg

	// Memory wiring — at most one of SPMBytes / SharedSPM; Cluster
	// places the accelerator behind a cluster's local crossbar (and
	// "cluster" as SharedSPM attaches that cluster's scratchpad).
	Cluster    string `json:"cluster,omitempty"`
	SPMBytes   uint64 `json:"spm_bytes,omitempty"`
	SPMLatency int    `json:"spm_latency,omitempty"`
	SPMBanks   int    `json:"spm_banks,omitempty"`
	SPMPorts   int    `json:"spm_ports,omitempty"`
	SharedSPM  string `json:"shared_spm,omitempty"`
	Global     bool   `json:"global,omitempty"` // keep a global-crossbar port despite local SPM
}

// DMACfg is a host-programmed block-copy DMA engine on the global
// crossbar (Fig. 16a wiring).
type DMACfg struct {
	Name string `json:"name"`
	Kind string `json:"kind,omitempty"` // only "block"
}

// StreamCfg wires producer stores to consumer loads through a bounded
// FIFO (Fig. 16c).
type StreamCfg struct {
	Name        string `json:"name"`
	Producer    string `json:"producer"`
	Consumer    string `json:"consumer"`
	BufferBytes int    `json:"buffer_bytes"`
}

// Load reads, strictly decodes, and validates a config file.
func Load(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	c.Dir = filepath.Dir(path)
	return c, nil
}

// Parse strictly decodes and validates a config document.
func Parse(data []byte) (*Config, error) {
	var c Config
	if err := Unmarshal(data, &c); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// Emit renders the canonical form of the config: stable field order,
// two-space indentation, defaults left implicit, trailing newline. Emit
// of a parsed document is idempotent — the round-trip contract behind
// `salam config emit`.
func (c *Config) Emit() ([]byte, error) {
	out, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// errPath builds a field-path validation error.
func errPath(path, format string, args ...any) error {
	return fmt.Errorf("config: %s: %s", path, fmt.Sprintf(format, args...))
}

func checkRange(path string, v, lo, hi int) error {
	if v != 0 && (v < lo || v > hi) {
		return errPath(path, "%d out of range [%d, %d]", v, lo, hi)
	}
	return nil
}

func (d *DeviceCfg) validate(path string) error {
	if d.ClockMHz < 0 || d.ClockMHz > 10000 {
		return errPath(path+".clock_mhz", "%g out of range (0, 10000]", d.ClockMHz)
	}
	if err := checkRange(path+".read_ports", d.ReadPorts, 1, 1024); err != nil {
		return err
	}
	if err := checkRange(path+".write_ports", d.WritePorts, 1, 1024); err != nil {
		return err
	}
	if err := checkRange(path+".max_outstanding", d.MaxOutstanding, 1, 1<<16); err != nil {
		return err
	}
	if err := checkRange(path+".res_queue", d.ResQueue, 1, 1<<20); err != nil {
		return err
	}
	names := make([]string, 0, len(d.FULimits))
	for name := range d.FULimits { //salam:vet:ok key collection feeding sort.Strings, order cannot escape
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if hw.FUClassByName(name) == hw.FUNone {
			return errPath(path+".fu_limits."+name, "unknown FU class (see salam config list-fus)")
		}
		if n := d.FULimits[name]; n < 0 {
			return errPath(path+".fu_limits."+name, "%d is negative", n)
		}
	}
	return nil
}

func (m *MemoryCfg) validate(path string) error {
	switch m.Memory {
	case "", "spm", "cache":
	default:
		return errPath(path+".memory", "unknown mode %q (spm or cache)", m.Memory)
	}
	if err := checkRange(path+".spm_latency", m.SPMLatency, 1, 1024); err != nil {
		return err
	}
	if err := checkRange(path+".spm_banks", m.SPMBanks, 1, 1024); err != nil {
		return err
	}
	if err := checkRange(path+".spm_ports", m.SPMPorts, 1, 1024); err != nil {
		return err
	}
	if err := checkRange(path+".cache_bytes", m.CacheBytes, 64, 1<<30); err != nil {
		return err
	}
	if m.CacheLine != 0 && (m.CacheLine < 8 || m.CacheLine > 4096 || m.CacheLine&(m.CacheLine-1) != 0) {
		return errPath(path+".cache_line", "%d must be a power of two in [8, 4096]", m.CacheLine)
	}
	if err := checkRange(path+".cache_assoc", m.CacheAssoc, 1, 256); err != nil {
		return err
	}
	return checkRange(path+".cache_mshrs", m.CacheMSHRs, 1, 1024)
}

// validate checks a kernel reference. In the flat form an empty reference
// is already rejected by Validate; inside an accelerator a reference is
// mandatory.
func (k *KernelRef) validate(path string) error {
	if _, err := kernels.ParsePreset(k.Preset, kernels.Default); err != nil {
		return errPath(path+".preset", "%v", err)
	}
	switch {
	case k.Kernel != "" && k.IRFile != "":
		return errPath(path, "kernel and ir_file are mutually exclusive")
	case k.Kernel == "" && k.IRFile == "":
		return errPath(path, "needs kernel or ir_file")
	case k.IRFile != "":
		if k.Workload == "" {
			return errPath(path+".workload", "ir_file needs a workload binding for input data and checking")
		}
		if len(k.Size) > 0 {
			return errPath(path+".size", "size applies to built-in kernels, not ir_file")
		}
	case k.Kernel != "":
		if k.Entry != "" {
			return errPath(path+".entry", "entry applies to ir_file configs")
		}
		if k.Workload != "" {
			return errPath(path+".workload", "workload applies to ir_file configs")
		}
		if len(k.Size) > 0 && k.Preset != "" {
			return errPath(path+".size", "size and preset are mutually exclusive")
		}
		for i, v := range k.Size {
			if v <= 0 || v > 1<<20 {
				return errPath(fmt.Sprintf("%s.size[%d]", path, i), "%d out of range [1, 2^20]", v)
			}
		}
	}
	return nil
}

// Validate checks the whole document: version consistency, knob ranges,
// reference integrity (clusters, shared SPMs, stream endpoints), and
// name uniqueness. Every diagnostic carries its field path.
func (c *Config) Validate() error {
	switch c.Version {
	case 0:
		if c.SoC != nil {
			return errPath("soc", "topology form requires \"version\": 1")
		}
		if err := c.KernelRef.validate("(top level)"); err != nil {
			return err
		}
		if err := c.DeviceCfg.validate("(top level)"); err != nil {
			return err
		}
		return c.MemoryCfg.validate("(top level)")
	case 1:
		if c.SoC == nil {
			return errPath("soc", "version 1 requires a soc object")
		}
		if c.Kernel != "" || c.IRFile != "" || c.Memory != "" || c.ClockMHz != 0 {
			return errPath("soc", "version 1 puts kernels and devices inside soc.accelerators, not at top level")
		}
		return c.SoC.validate("soc")
	default:
		return errPath("version", "unsupported version %d (0 or 1)", c.Version)
	}
}

func (s *SoCCfg) validate(path string) error {
	if err := checkRange(path+".dram_mb", s.DRAMMB, 1, 4096); err != nil {
		return err
	}
	if err := checkRange(path+".xbar_width", s.XbarWidth, 1, 256); err != nil {
		return err
	}
	if s.LLC != nil {
		p := path + ".llc"
		if s.LLC.Bytes < 64 || s.LLC.Bytes > 1<<30 {
			return errPath(p+".bytes", "%d out of range [64, 2^30]", s.LLC.Bytes)
		}
		if s.LLC.Line != 0 && (s.LLC.Line < 8 || s.LLC.Line&(s.LLC.Line-1) != 0) {
			return errPath(p+".line", "%d must be a power of two >= 8", s.LLC.Line)
		}
		if err := checkRange(p+".assoc", s.LLC.Assoc, 1, 256); err != nil {
			return err
		}
	}

	spms := map[string]bool{}
	for i, m := range s.SPMs {
		p := fmt.Sprintf("%s.spms[%d]", path, i)
		if m.Name == "" {
			return errPath(p+".name", "missing name")
		}
		if spms[m.Name] {
			return errPath(p+".name", "duplicate SPM %q", m.Name)
		}
		spms[m.Name] = true
		if m.Bytes == 0 || m.Bytes > 8<<20 {
			return errPath(p+".bytes", "%d out of range [1, 8 MiB] (the SPM arena)", m.Bytes)
		}
		if err := checkRange(p+".latency", m.Latency, 1, 1024); err != nil {
			return err
		}
		if err := checkRange(p+".banks", m.Banks, 1, 1024); err != nil {
			return err
		}
		if err := checkRange(p+".ports", m.Ports, 1, 1024); err != nil {
			return err
		}
	}

	clusters := map[string]bool{}
	for i, cl := range s.Clusters {
		p := fmt.Sprintf("%s.clusters[%d]", path, i)
		if cl.Name == "" {
			return errPath(p+".name", "missing name")
		}
		if clusters[cl.Name] || spms[cl.Name] {
			return errPath(p+".name", "duplicate name %q", cl.Name)
		}
		clusters[cl.Name] = true
		if cl.SharedSPMBytes > 8<<20 {
			return errPath(p+".shared_spm_bytes", "%d exceeds the 8 MiB SPM arena", cl.SharedSPMBytes)
		}
		if err := checkRange(p+".spm_latency", cl.SPMLatency, 1, 1024); err != nil {
			return err
		}
		if err := checkRange(p+".spm_banks", cl.SPMBanks, 1, 1024); err != nil {
			return err
		}
		if err := checkRange(p+".spm_ports", cl.SPMPorts, 1, 1024); err != nil {
			return err
		}
		if err := checkRange(p+".xbar_width", cl.XbarWidth, 1, 256); err != nil {
			return err
		}
	}

	if len(s.Accels) == 0 {
		return errPath(path+".accelerators", "at least one accelerator required")
	}
	accels := map[string]bool{}
	for i, a := range s.Accels {
		p := fmt.Sprintf("%s.accelerators[%d]", path, i)
		if a.Name == "" {
			return errPath(p+".name", "missing name")
		}
		if accels[a.Name] {
			return errPath(p+".name", "duplicate accelerator %q", a.Name)
		}
		accels[a.Name] = true
		if err := a.KernelRef.validate(p); err != nil {
			return err
		}
		if err := a.DeviceCfg.validate(p); err != nil {
			return err
		}
		if a.Cluster != "" && !clusters[a.Cluster] {
			return errPath(p+".cluster", "no cluster named %q", a.Cluster)
		}
		if a.SPMBytes > 0 && a.SharedSPM != "" {
			return errPath(p, "spm_bytes and shared_spm are mutually exclusive")
		}
		if a.SPMBytes > 8<<20 {
			return errPath(p+".spm_bytes", "%d exceeds the 8 MiB SPM arena", a.SPMBytes)
		}
		switch {
		case a.SharedSPM == "":
		case a.SharedSPM == "cluster":
			if a.Cluster == "" {
				return errPath(p+".shared_spm", "\"cluster\" requires the cluster field")
			}
		case !spms[a.SharedSPM]:
			return errPath(p+".shared_spm", "no SPM named %q", a.SharedSPM)
		}
		if err := checkRange(p+".spm_latency", a.SPMLatency, 1, 1024); err != nil {
			return err
		}
		if err := checkRange(p+".spm_banks", a.SPMBanks, 1, 1024); err != nil {
			return err
		}
		if err := checkRange(p+".spm_ports", a.SPMPorts, 1, 1024); err != nil {
			return err
		}
	}

	dmas := map[string]bool{}
	for i, d := range s.DMAs {
		p := fmt.Sprintf("%s.dmas[%d]", path, i)
		if d.Name == "" {
			return errPath(p+".name", "missing name")
		}
		if dmas[d.Name] || accels[d.Name] {
			return errPath(p+".name", "duplicate name %q", d.Name)
		}
		dmas[d.Name] = true
		if d.Kind != "" && d.Kind != "block" {
			return errPath(p+".kind", "unknown DMA kind %q (only \"block\")", d.Kind)
		}
	}

	streams := map[string]bool{}
	for i, st := range s.Streams {
		p := fmt.Sprintf("%s.streams[%d]", path, i)
		if st.Name == "" {
			return errPath(p+".name", "missing name")
		}
		if streams[st.Name] {
			return errPath(p+".name", "duplicate stream %q", st.Name)
		}
		streams[st.Name] = true
		if !accels[st.Producer] {
			return errPath(p+".producer", "no accelerator named %q", st.Producer)
		}
		if !accels[st.Consumer] {
			return errPath(p+".consumer", "no accelerator named %q", st.Consumer)
		}
		if st.Producer == st.Consumer {
			return errPath(p, "producer and consumer must differ")
		}
		if st.BufferBytes < 8 || st.BufferBytes > 1<<24 {
			return errPath(p+".buffer_bytes", "%d out of range [8, 2^24]", st.BufferBytes)
		}
	}
	return nil
}

// ResolveIRPath resolves a KernelRef's ir_file against the config's load
// directory.
func (c *Config) ResolveIRPath(ref *KernelRef) string {
	if ref.IRFile == "" || filepath.IsAbs(ref.IRFile) || c.Dir == "" {
		return ref.IRFile
	}
	return filepath.Join(c.Dir, ref.IRFile)
}

// Describe returns a short human summary (salam config info).
func (c *Config) Describe() string {
	var b strings.Builder
	if c.Version == 0 {
		fmt.Fprintf(&b, "flat single-accelerator config (version 0)\n")
		if c.Kernel != "" {
			fmt.Fprintf(&b, "  kernel: %s", c.Kernel)
			if c.KernelRef.Preset != "" {
				fmt.Fprintf(&b, " (preset %s)", c.KernelRef.Preset)
			}
			if len(c.Size) > 0 {
				fmt.Fprintf(&b, " (size %v)", c.Size)
			}
			b.WriteByte('\n')
		} else {
			fmt.Fprintf(&b, "  ir_file: %s (entry %s, workload %s)\n", c.IRFile, c.Entry, c.Workload)
		}
		mode := c.Memory
		if mode == "" {
			mode = "spm"
		}
		fmt.Fprintf(&b, "  memory: %s\n", mode)
		return b.String()
	}
	s := c.SoC
	fmt.Fprintf(&b, "soc topology config (version 1)\n")
	fmt.Fprintf(&b, "  accelerators: %d, clusters: %d, spms: %d, dmas: %d, streams: %d\n",
		len(s.Accels), len(s.Clusters), len(s.SPMs), len(s.DMAs), len(s.Streams))
	for _, a := range s.Accels {
		what := a.Kernel
		if what == "" {
			what = a.IRFile + ":" + a.Entry
		}
		wiring := "crossbar"
		switch {
		case a.SPMBytes > 0:
			wiring = fmt.Sprintf("private SPM %d B", a.SPMBytes)
		case a.SharedSPM != "":
			wiring = "shared SPM " + a.SharedSPM
		}
		if a.Cluster != "" {
			wiring += ", cluster " + a.Cluster
		}
		fmt.Fprintf(&b, "  %s: %s (%s)\n", a.Name, what, wiring)
	}
	if s.LLC != nil {
		fmt.Fprintf(&b, "  llc: %d B\n", s.LLC.Bytes)
	}
	return b.String()
}
