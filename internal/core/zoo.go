package core

import "seesaw/internal/tft"

// init registers the built-in zoo in its canonical enumeration order:
// the paper's baseline first, the paper's design, the serial
// alternative, then the zoo additions.
func init() {
	Register(Design{
		Name:    "baseline",
		Display: "VIPT (baseline)",
		New: func(c Config) (L1Cache, error) {
			v, err := NewBaselineVIPT(c)
			if err != nil {
				return nil, err
			}
			return v, nil
		},
	})
	Register(Design{
		Name:    "seesaw",
		Display: "SEESAW",
		New: func(c Config) (L1Cache, error) {
			s, err := NewSeesaw(c)
			if err != nil {
				return nil, err
			}
			return s, nil
		},
		Validate:   partitionRules,
		UsesTFT:    true,
		Speculates: true,
		AreaBytes: func(c Config) uint64 {
			return uint64(tft.New(c.TFT).SizeBytes())
		},
	})
	Register(Design{
		Name:    "pipt",
		Display: "PIPT (small TLB)",
		New: func(c Config) (L1Cache, error) {
			p, err := NewPIPT(c)
			if err != nil {
				return nil, err
			}
			return p, nil
		},
		ChaosSerialTLB: 2,
		ChaosSmallTLB:  true,
		ChaosL1Ways:    4,
	})
	Register(Design{
		Name:    "vespa",
		Display: "VESPA",
		New: func(c Config) (L1Cache, error) {
			v, err := NewVespa(c)
			if err != nil {
				return nil, err
			}
			return v, nil
		},
		Validate:   partitionRules,
		Speculates: true,
	})
}
