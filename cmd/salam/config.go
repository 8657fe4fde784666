package main

import (
	"fmt"
	"io"

	"gosalam/internal/hw"
	"gosalam/internal/soccfg"
)

const configUsage = `want one of
  salam config validate <config.json>...   strict-decode + semantic validation
  salam config info <config.json>          summarize the topology
  salam config list-fus                    FU classes usable in fu_limits, with 40nm profile data
  salam config emit <config.json>          re-emit in canonical JSON form`

// runConfig is the declarative-config companion. validate succeeds only
// when every named document decodes strictly (any unknown field is an
// error carrying its full path) and passes semantic validation; emit
// writes the canonical, idempotent JSON form — parse(emit(c)) == c, byte
// for byte.
func runConfig(args []string, stdout, stderr io.Writer) error {
	verb, paths := "", args
	if len(args) > 0 {
		verb, paths = args[0], args[1:]
	}
	switch {
	case verb == "validate" && len(paths) > 0:
		bad := 0
		for _, path := range paths {
			if _, err := soccfg.Load(path); err != nil {
				fmt.Fprintf(stderr, "%s: %v\n", path, err)
				bad++
				continue
			}
			fmt.Fprintf(stdout, "%s: ok\n", path)
		}
		if bad > 0 {
			return fmt.Errorf("%d of %d configs rejected", bad, len(paths))
		}
	case verb == "list-fus" && len(paths) == 0:
		p := hw.Default40nm()
		fmt.Fprintf(stdout, "%-16s %8s %10s %12s %12s %10s\n",
			"class", "latency", "pipelined", "area_um2", "leakage_mw", "energy_pj")
		for _, cls := range hw.AllFUClasses() {
			spec := p.Spec(cls)
			fmt.Fprintf(stdout, "%-16s %8d %10t %12.1f %12.4f %10.2f\n",
				cls.String(), spec.Latency, spec.Pipelined,
				spec.AreaUM2, spec.LeakageMW, spec.EnergyPJ)
		}
	case (verb == "info" || verb == "emit") && len(paths) == 1:
		c, err := soccfg.Load(paths[0])
		if err != nil {
			return err
		}
		if verb == "info" {
			fmt.Fprint(stdout, c.Describe())
			return nil
		}
		out, err := c.Emit()
		if err != nil {
			return err
		}
		_, err = stdout.Write(out)
		return err
	default:
		return usagef("%s", configUsage)
	}
	return nil
}
