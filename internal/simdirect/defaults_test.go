package simdirect

import (
	"testing"

	"rfclos/internal/simcore"
	"rfclos/internal/simnet"
	"rfclos/internal/traffic"
)

// TestDefaultsAgreeAcrossFrontEnds pins both network-class front ends to the
// one simcore defaulting path: a zero Config must run the direct engine on
// exactly the Table 2 parameters a zero simnet.Config defaults to, except
// for RequestRefresh, which the direct adapter pins to 1 (its random hop
// choice must be re-drawn every cycle).
func TestDefaultsAgreeAcrossFrontEnds(t *testing.T) {
	rrn := buildRRN(t, 32, 4, 2)
	sim, err := New(rrn, traffic.NewUniform(rrn.Terminals()), simcore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got := sim.eng.Config()
	want := simnet.Config{}.WithDefaults()
	want.RequestRefresh = 1
	if got != want {
		t.Errorf("simdirect defaults diverged from simnet's:\n got %+v\nwant %+v", got, want)
	}
	// Every other field passes through unchanged.
	sim, err = New(rrn, traffic.NewUniform(rrn.Terminals()), simcore.Config{RequestRefresh: 8, InfiniteSink: true})
	if err != nil {
		t.Fatal(err)
	}
	if c := sim.eng.Config(); c.RequestRefresh != 1 || !c.InfiniteSink {
		t.Errorf("RequestRefresh=8, InfiniteSink=true ran as %+v, want RequestRefresh 1 and InfiniteSink kept", c)
	}
	if d := simnet.DefaultConfig(); d != simcore.DefaultConfig() {
		t.Errorf("simnet.DefaultConfig() = %+v, simcore.DefaultConfig() = %+v", d, simcore.DefaultConfig())
	}
}
