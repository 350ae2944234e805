package core

import (
	"encoding/json"
	"fmt"

	"seesaw/internal/tft"
)

// DesignName implements DesignNamed.
func (b *BaselineVIPT) DesignName() string { return "baseline" }

// DesignName implements DesignNamed.
func (s *Seesaw) DesignName() string { return "seesaw" }

// DesignName implements DesignNamed.
func (p *PIPT) DesignName() string { return "pipt" }

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
		State: func(l L1Cache, st *L1State) {
			if v := l.(*BaselineVIPT); v.wp != nil {
				ws := v.wp.State()
				st.WP = &ws
			}
		},
		SetState: func(l L1Cache, st L1State) error {
			if st.TFT != nil {
				return fmt.Errorf("core: baseline VIPT state carries a TFT")
			}
			return setWP(l.(*BaselineVIPT).wp, st.WP)
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
		State: func(l L1Cache, st *L1State) {
			s := l.(*Seesaw)
			fs := s.f.State()
			st.TFT = &fs
			st.Stats = s.Stats
			if s.wp != nil {
				ws := s.wp.State()
				st.WP = &ws
			}
		},
		SetState: func(l L1Cache, st L1State) error {
			s := l.(*Seesaw)
			if st.TFT == nil {
				return fmt.Errorf("core: SEESAW state is missing its TFT")
			}
			if err := s.f.SetState(*st.TFT); err != nil {
				return err
			}
			s.Stats = st.Stats
			return setWP(s.wp, st.WP)
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
		SetState: func(l L1Cache, st L1State) error {
			if st.TFT != nil || st.WP != nil {
				return fmt.Errorf("core: PIPT state carries a TFT or way predictor")
			}
			return nil
		},
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
		State: func(l L1Cache, st *L1State) {
			v := l.(*Vespa)
			// Design-specific statistics ride the opaque Extra field:
			// the gob wire shape of L1State stays fixed as the zoo grows.
			b, err := json.Marshal(v.Stats)
			if err != nil {
				panic(fmt.Sprintf("core: VESPA stats encode: %v", err)) // struct of uint64s cannot fail
			}
			st.Extra = b
		},
		SetState: func(l L1Cache, st L1State) error {
			v := l.(*Vespa)
			if st.TFT != nil || st.WP != nil {
				return fmt.Errorf("core: VESPA state carries a TFT or way predictor")
			}
			if len(st.Extra) == 0 {
				return fmt.Errorf("core: VESPA state is missing its statistics")
			}
			var vs VespaStats
			if err := json.Unmarshal(st.Extra, &vs); err != nil {
				return fmt.Errorf("core: VESPA stats decode: %w", err)
			}
			v.Stats = vs
			return nil
		},
	})
}
