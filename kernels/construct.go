package kernels

import "fmt"

// Construct builds a kernel family at an explicit size — the hook that
// lets declarative SoC configs pin exact workload dimensions instead of
// picking a preset (e.g. the Fig. 16 CNN layers at a 12x12 image). The
// size slice carries the same arguments as the Go constructor; optional
// trailing arguments take the constructor's documented default. Explicit
// sizes are an unbounded key space, so unlike Lookup every call returns a
// fresh kernel.
func Construct(name string, size []int) (k *Kernel, err error) {
	f, err := familyByName(name)
	if err != nil {
		return nil, fmt.Errorf("kernels: %w", err)
	}
	max := len(f.sizes[Small])
	min := max - len(f.opt)
	if len(size) < min || len(size) > max {
		if min == max {
			return nil, fmt.Errorf("kernels: %s takes %d size arguments, got %d", name, min, len(size))
		}
		return nil, fmt.Errorf("kernels: %s takes %d-%d size arguments, got %d", name, min, max, len(size))
	}
	for i, v := range size {
		if v <= 0 {
			return nil, fmt.Errorf("kernels: %s size[%d] = %d, must be positive", name, i, v)
		}
	}
	// Several constructors panic on invalid shapes (odd maxpool dims,
	// non-power-of-two trees); surface those as errors, not crashes.
	defer func() {
		if r := recover(); r != nil {
			k, err = nil, fmt.Errorf("kernels: %s%v: %v", name, size, r)
		}
	}()
	full := append(append([]int(nil), size...), f.opt[len(size)-min:]...)
	return f.build(full), nil
}
