package sm

import "slices"

// EncodeFullState serialises a node's complete checkable state — service
// state plus the pending-timer set — into the stable form stored inside
// checkpoints and fed to the model checker.
func EncodeFullState(svc Service, timers TimerSet) []byte {
	e := NewEncoder()
	svc.EncodeState(e)
	timers.Encode(e)
	return slices.Clone(e.Bytes())
}

// DecodeFullState reconstructs a service instance (via factory) and timer
// set from EncodeFullState output.
func DecodeFullState(factory Factory, id NodeID, data []byte) (Service, TimerSet, error) {
	svc := factory(id)
	d := NewDecoder(data)
	if err := svc.DecodeState(d); err != nil {
		return nil, nil, err
	}
	timers, err := DecodeTimerSet(d)
	if err != nil {
		return nil, nil, err
	}
	return svc, timers, nil
}
