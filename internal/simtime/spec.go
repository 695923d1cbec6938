package simtime

import (
	"fmt"

	"repro/internal/machine"
)

// Timing-backend specification. The distributed gather must tell remote
// workers how to construct the exact timer the coordinator would use locally
// — a Timer value cannot travel over the wire, but a Spec can. The training
// path and the workers both construct their timer with Build, so they time
// identically by construction (the Simulator is a pure function of its
// Config, so a sim sweep sharded across any number of workers merges
// byte-identical to the single-node gather).

// Backend names accepted by Spec.
const (
	// BackendSim selects the analytic Simulator over a named machine.Node.
	BackendSim = "sim"
	// BackendReal selects wall-clock timing of the local pure-Go kernels.
	BackendReal = "real"
)

// Spec is a wire-serialisable description of a timing backend.
type Spec struct {
	// Backend is BackendSim or BackendReal.
	Backend string `json:"backend"`
	// Platform names the simulated machine.Node ("Gadi", "Setonix");
	// sim backend only.
	Platform string `json:"platform,omitempty"`
	// Seed is the simulator's measurement-noise seed; sim backend only.
	Seed int64 `json:"seed,omitempty"`
	// HT enables hyper-threading on the simulated node; sim backend only.
	HT bool `json:"ht,omitempty"`
}

// SimSpec returns the Spec describing the Simulator that DefaultConfig
// builds for the named platform with the given seed and HT setting.
func SimSpec(platform string, seed int64, ht bool) Spec {
	return Spec{Backend: BackendSim, Platform: platform, Seed: seed, HT: ht}
}

// RealSpec returns the Spec describing a local RealTimer.
func RealSpec() Spec {
	return Spec{Backend: BackendReal}
}

// Build constructs the described timer. The sim backend is DefaultConfig
// (noise level, blocking parameters, affinity policy) with only seed and HT
// overridden, so any two parties building the same Spec time identically.
func (s Spec) Build() (Timer, error) {
	switch s.Backend {
	case BackendSim:
		node, err := machine.ByName(s.Platform)
		if err != nil {
			return nil, fmt.Errorf("simtime: spec: %w", err)
		}
		cfg := DefaultConfig(node)
		cfg.HT = s.HT
		cfg.Seed = s.Seed
		return New(cfg), nil
	case BackendReal:
		return NewRealTimer(), nil
	default:
		return nil, fmt.Errorf("simtime: spec: unknown backend %q (want %q or %q)",
			s.Backend, BackendSim, BackendReal)
	}
}
