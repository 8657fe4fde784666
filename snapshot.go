package salam

// Checkpoint/restore orchestration. A checkpoint captures the full dynamic
// state of a system — event queue position, functional memory, statistics
// tree, and every snapshot-capable device in the registry: engine
// reservation queues, memory-device queues, in-flight requests — as a
// versioned snapshot.Image. Restore lands a system of the same topology at
// the exact simulated point, and resuming is byte-identical to having run
// straight through: the event queue records only logical (when, pri, seq)
// coordinates, which totally order execution independent of heap layout.
// The system core implements both once; Session and SoC wrap them with
// their own image kind and fingerprint.
//
// Soundness rests on one invariant: everything a Reset would drop must be
// claimed by the image. Every pending event belongs to exactly one owner —
// a device clock tick, a dynamic op's compute-latency arrival, or a memory
// request's scheduled completion — and Checkpoint counts those claims
// against the queue's pending total; every device that captures nothing
// (crossbar, DMAs, stream buffers, GIC, host) must report itself idle.
// Checkpoint fails cleanly wherever either half does not hold — crossbar
// hops, DMA bursts, stream windows, MMR bus accesses, buffered stream
// data, a latched interrupt, a host blocked in WaitIRQ — rather than
// producing an image that would silently drop state on restore. A
// quiescent system is the zero-pending case of the same rule.

import (
	"encoding/json"
	"fmt"
	"sort"

	"gosalam/internal/mem"
	"gosalam/internal/sim"
	"gosalam/internal/snapshot"
	"gosalam/kernels"
)

// fingerprintFor derives the configuration identity stamped into session
// images: the kernel, the workload seed and memory footprint, and every
// option that shapes the simulated schedule. Restore refuses an image whose
// fingerprint does not match the restoring session's options — landing a
// checkpoint under different knobs would silently diverge from the run the
// image came from. Observer-only options (SkipCheck, profiling, timeline
// tracing) are excluded: they never change the schedule, so a checkpoint
// taken under one may resume under another. The hardware profile is not
// fingerprinted (profiles are identified by pointer); images are only
// portable between sessions using the same profile object.
func fingerprintFor(k *kernels.Kernel, opts RunOpts, spaceSize int) string {
	doc := struct {
		Kernel string
		Space  int
		Seed   int64
		Mem    MemKind
		Accel  AccelConfig
		SPMLatency, SPMBanks, SPMPortsPer       int
		CacheBytes, CacheLine, CacheAssoc, MSHR int
	}{
		Kernel: k.Name, Space: spaceSize, Seed: opts.Seed, Mem: opts.Mem,
		Accel:      opts.Accel,
		SPMLatency: opts.SPMLatency, SPMBanks: opts.SPMBanks, SPMPortsPer: opts.SPMPortsPer,
		CacheBytes: opts.CacheBytes, CacheLine: opts.CacheLine,
		CacheAssoc: opts.CacheAssoc, MSHR: opts.CacheMSHRs,
	}
	b, err := json.Marshal(doc)
	if err != nil {
		panic(fmt.Sprintf("salam: unfingerprintable options: %v", err))
	}
	return string(b)
}

// checkpoint captures the system as an image of the given kind and key:
// the queue/space/stats triple, every snapshotter in registry order, and
// the requests pending as scheduled completions.
func (s *system) checkpoint(kind, key string) (*snapshot.Image, error) {
	img := &snapshot.Image{
		Kind: kind,
		Key:  key,
		Queue: snapshot.Queue{
			Now: uint64(s.Q.Now()), Seq: s.Q.Seq(),
			Fired: s.Q.Fired(), Pending: s.Q.Pending(),
		},
		Space: append([]byte(nil), s.Space.Data...),
	}
	var err error
	if img.Stats, err = sim.CaptureStats(s.Stats); err != nil {
		return nil, err
	}

	// Claim accounting: every pending event must belong to a captured
	// owner, or restore could not rebuild the schedule; and a device that
	// captures nothing must have nothing to lose.
	claimed := 0
	for _, c := range s.comps {
		sn, ok := c.(snapshotter)
		if !ok {
			if c.Busy() {
				return nil, fmt.Errorf("salam: %s is busy and keeps no snapshot state — system not snapshotable at this point", c.Name())
			}
			continue
		}
		st, err := sn.Capture()
		if err != nil {
			return nil, fmt.Errorf("salam: snapshotting %s: %w", c.Name(), err)
		}
		claimed += st.Claims()
		img.Comps = append(img.Comps, st)
	}

	// Scheduled request completions live on the event queue itself.
	var claimErr error
	s.Q.ForEachPending(func(when sim.Tick, pri int32, seq uint64, obj sim.Firer) {
		r, ok := obj.(*mem.Request)
		if !ok {
			return
		}
		sr, err := mem.CaptureReq(r)
		if err != nil {
			if claimErr == nil {
				claimErr = err
			}
			return
		}
		sr.Sched = true
		sr.Ev = snapshot.Event{When: uint64(when), Pri: pri, Seq: seq}
		img.Sched = append(img.Sched, sr)
	})
	if claimErr != nil {
		return nil, claimErr
	}
	// ForEachPending walks heap order; images must not depend on it.
	sort.Slice(img.Sched, func(i, j int) bool { return img.Sched[i].Ev.Seq < img.Sched[j].Ev.Seq })
	claimed += len(img.Sched)
	if claimed != img.Queue.Pending {
		return nil, fmt.Errorf("salam: %d pending events but only %d claimed by components — system not snapshotable at this point",
			img.Queue.Pending, claimed)
	}
	if _, unique := s.owners(); !unique && img.Queue.Pending != 0 {
		return nil, fmt.Errorf("salam: mid-flight checkpoints need a single engine and cache to own in-flight requests")
	}
	return img, nil
}

// snapshotters lists the registry's snapshot-capable devices, in order.
func (s *system) snapshotters() []snapshotter {
	var out []snapshotter
	for _, c := range s.comps {
		if sn, ok := c.(snapshotter); ok {
			out = append(out, sn)
		}
	}
	return out
}

// owners indexes, by owner tag, the snapshotters that rebuild in-flight
// requests. A tag names a kind of creator, not a device, so it resolves
// only while one device declares it; unique is false otherwise.
func (s *system) owners() (byTag map[uint8]int, unique bool) {
	byTag, unique = map[uint8]int{}, true
	for i, sn := range s.snapshotters() {
		if o, ok := sn.(requestOwner); ok {
			if _, dup := byTag[o.Owner()]; dup {
				unique = false
			}
			byTag[o.Owner()] = i
		}
	}
	return byTag, unique
}

// validate checks that img fits this system — memory size and the
// snapshotters' names, in registry order — without touching any state.
func (s *system) validate(img *snapshot.Image) error {
	if len(img.Space) != len(s.Space.Data) {
		return fmt.Errorf("salam: image memory is %d bytes, system has %d", len(img.Space), len(s.Space.Data))
	}
	snaps := s.snapshotters()
	if len(img.Comps) != len(snaps) {
		return fmt.Errorf("salam: image has %d components, system registers %d", len(img.Comps), len(snaps))
	}
	for i, sn := range snaps {
		if img.Comps[i].Name != sn.Name() {
			return fmt.Errorf("salam: image component %d is %q, system expects %q", i, img.Comps[i].Name, sn.Name())
		}
	}
	return nil
}

// restore lands a validated image in a freshly reset system, at the exact
// point it captured: functional memory, statistics, queue position, every
// snapshotter's state in registry order, and every in-flight request,
// rebuilt by the device that declares its owner tag — engine requests
// rebind to their dynamic op, cache fills to their MSHR entry; writebacks
// carry only bandwidth. A device's queues may hold requests another device
// created, and rebuilding one needs its creator's state: the resolver
// restores an owner on first demand, ahead of its turn.
func (s *system) restore(img *snapshot.Image) error {
	copy(s.Space.Data, img.Space)
	if err := sim.RestoreStats(s.Stats, img.Stats); err != nil {
		return err
	}
	s.Q.RestoreAt(sim.Tick(img.Queue.Now), img.Queue.Seq, img.Queue.Fired)

	snaps := s.snapshotters()
	owners, unique := s.owners()
	restored := make([]bool, len(snaps))
	var resolve mem.Resolver
	restoreComp := func(i int) error {
		if restored[i] {
			return nil
		}
		restored[i] = true
		if err := snaps[i].Restore(&img.Comps[i], resolve); err != nil {
			return fmt.Errorf("salam: restoring %s: %w", snaps[i].Name(), err)
		}
		return nil
	}
	resolve = func(sr snapshot.Req) (*mem.Request, error) {
		if sr.Owner == snapshot.OwnerWriteback {
			return mem.RebuildWriteback(sr), nil
		}
		i, ok := owners[sr.Owner]
		if !ok || !unique {
			return nil, fmt.Errorf("salam: request %#x has no unique snapshot owner (tag %d)", sr.Addr, sr.Owner)
		}
		if err := restoreComp(i); err != nil {
			return nil, err
		}
		return snaps[i].(requestOwner).RebuildRequest(sr)
	}
	for i := range snaps {
		if err := restoreComp(i); err != nil {
			return err
		}
	}
	for _, sr := range img.Sched {
		r, err := resolve(sr)
		if err != nil {
			return err
		}
		mem.RestoreScheduled(s.Q, s.Space, r, sr.Ev)
	}
	if got := s.Q.Pending(); got != img.Queue.Pending {
		return fmt.Errorf("salam: restore rebuilt %d pending events, image recorded %d", got, img.Queue.Pending)
	}
	return nil
}

// Checkpoint captures the full dynamic state of a run in progress (one
// paused by RunToCycle, or mid-sampling) as a restorable image. The
// session itself is left untouched and can keep running; call Resume to
// finish it. Encode the image for storage on disk.
func (s *Session) Checkpoint() (*snapshot.Image, error) {
	if s.inst == nil || !s.broken {
		return nil, fmt.Errorf("salam: session for %s has no run in progress to checkpoint", s.k.Name)
	}
	return s.sys.checkpoint(snapshot.KindSession, s.fp)
}

// Restore lands the session at the exact simulated point a Checkpoint
// captured: it rewinds the session like a warm run, replays the workload
// setup, then overwrites all dynamic state from the image. opts must
// describe the same configuration the image was taken under (enforced via
// the fingerprint). After a successful Restore the session is mid-run;
// continue with Resume, or take another Checkpoint (which reproduces the
// image byte for byte).
func (s *Session) Restore(opts RunOpts, img *snapshot.Image) error {
	if img == nil || img.Kind != snapshot.KindSession {
		return fmt.Errorf("salam: not a session image")
	}
	if want := fingerprintFor(s.k, opts, s.spaceSize); img.Key != want {
		return fmt.Errorf("salam: image was taken under a different kernel or configuration")
	}
	if err := s.sys.validate(img); err != nil {
		return err
	}
	if err := s.begin(opts); err != nil {
		return err
	}
	// From here the session is marked broken until a Resume completes; an
	// error below leaves it dropped by pools rather than half-restored.
	if err := s.sys.restore(img); err != nil {
		return err
	}
	s.runDone = !s.acc.Busy()
	return nil
}

// topologyKey identifies an SoC's snapshot topology: the memory footprint
// plus every snapshot-capable device in registry order.
func (s *SoC) topologyKey() string {
	key := fmt.Sprintf("space=%d", len(s.Space.Data))
	for _, sn := range s.snapshotters() {
		key += "|" + sn.Name()
	}
	return key
}

// Checkpoint captures the SoC as a restorable image: queue position,
// physical memory, the statistics tree, and the state of every
// snapshot-capable device (DRAM, scratchpads, caches, accelerator nodes).
// The natural point is quiescence, right after a driver program completes
// and the queue drains; a busy SoC is refused wherever the host, the GIC, a
// DMA, a crossbar or a stream buffer holds state or events no device
// claims.
func (s *SoC) Checkpoint() (*snapshot.Image, error) {
	return s.checkpoint(snapshot.KindSoC, s.topologyKey())
}

// Restore rewinds the SoC with Reset and lands it at a captured point. The
// target must have the same topology (same devices constructed in the same
// order) and be idle; a refused image leaves it untouched. Memory
// allocation cursors and DMA control registers are not part of the image;
// rerun workload setup before launching new programs.
func (s *SoC) Restore(img *snapshot.Image) error {
	if img == nil || img.Kind != snapshot.KindSoC {
		return fmt.Errorf("salam: not a SoC image")
	}
	if want := s.topologyKey(); img.Key != want {
		return fmt.Errorf("salam: image was taken on a different SoC topology")
	}
	if n := s.Q.Pending(); n != 0 {
		return fmt.Errorf("salam: restore requires an idle SoC to rewind (%d events pending)", n)
	}
	if err := s.validate(img); err != nil {
		return err
	}
	s.Reset()
	return s.restore(img)
}
