package sim

import "udwn/internal/rng"

// Message is the payload of one transmission. The simulator treats it as
// opaque; protocols define the meaning of Kind and Data (e.g. a broadcast
// payload carries the source in Data). Recv.From names the sender.
type Message struct {
	// Kind is a protocol-defined discriminator.
	Kind int32
	// Data is a protocol-defined payload.
	Data int64
}

// Action is what a node does in one slot. It stays within the 32 bytes and
// 4 fields Go keeps in registers on 64-bit targets: a larger Act or Seized
// result stalls every call (TestSlotValuesAreRegisterSized explains why).
type Action struct {
	// Msg is the message to transmit; ignored unless Transmit.
	Msg Message
	// PowerScale scales this transmission's power (0 or 1 = the uniform
	// power P the model assumes). Values < 1 implement the App. B remark
	// that the NTD primitive can be realised with power control: a
	// sufficiently lowered transmission is decodable only very near the
	// sender, so its receipt itself certifies proximity. Fading models
	// honour the scale in both signal and interference; pure graph models
	// apply a decode-range cutoff at scale^{1/ζ}·R.
	PowerScale float64
	// Channel is the frequency channel the node tunes to this slot, for
	// transmitting or listening alike (half-duplex single radio). Only
	// meaningful when Config.Channels > 1; values outside [0, Channels) are
	// clamped. Transmissions interfere, carrier-sense and decode only
	// within their channel.
	Channel int32
	// Transmit requests a transmission of Msg this slot.
	Transmit bool
}

// Recv describes one successfully decoded transmission.
type Recv struct {
	// From is the transmitter's id.
	From int
	// Msg is the decoded message.
	Msg Message
	// RSS is the received signal strength of this transmission, used by the
	// NTD primitive.
	RSS float64
}

// Observation is delivered to a node after each slot in which it acted.
// Fields corresponding to disabled primitives are left at their zero value.
type Observation struct {
	// Tick is the global tick the observation describes.
	Tick int
	// Slot is the slot index within the round.
	Slot int
	// Transmitted reports whether this node transmitted in the slot.
	Transmitted bool
	// Received holds the frame this node decoded: at most one (see
	// model.Model), and none for transmitters, which are half-duplex. It
	// aliases simulator scratch; do not keep the slice past Observe.
	Received []Recv
	// Busy is the CD outcome: total sensed interference at or above the
	// busy threshold. Valid only when the CD primitive is enabled.
	Busy bool
	// Acked is the ACK outcome for a transmitter. With the ACK primitive it
	// follows Def. ACK (threshold sensing + ground truth + adversary); with
	// FreeAck it is the ground-truth mass-delivery indicator.
	Acked bool
	// NTD reports whether any decoded message came from within the NTD
	// radius εR/2. Valid only when the NTD primitive is enabled.
	NTD bool
}

// Node is the per-node context handed to protocol callbacks.
type Node struct {
	// ID is the node's identity in [0, n).
	ID int
	// RNG is the node's private random stream.
	RNG *rng.Source
}

// Protocol is the per-node algorithm. The simulator owns one instance per
// node (created by a ProtocolFactory); instances never run concurrently, so
// they need no synchronisation.
type Protocol interface {
	// Act is invoked at each of the node's slot boundaries and returns the
	// node's action for the slot.
	Act(n *Node, slot int) Action
	// Observe is invoked after a slot in which the node acted, with the
	// slot's outcome.
	Observe(n *Node, slot int, obs *Observation)
}

// ProtocolFactory creates the protocol instance for node id. It is called
// once per node at construction and again whenever a node is revived
// (churn arrival), giving arrivals a fresh initial state as the paper
// assumes.
type ProtocolFactory func(id int) Protocol

// Primitives selects which sensing primitives the simulator grants to the
// protocols.
type Primitives uint8

// Primitive flags.
const (
	// CD grants contention detection (Busy/Idle channel readings).
	CD Primitives = 1 << iota
	// ACK grants successful-transmission detection per Def. ACK.
	ACK
	// NTD grants near-transmission detection.
	NTD
	// FreeAck replaces threshold-sensed ACK with ground-truth delivery
	// feedback, modelling the "free acknowledgements" assumption of prior
	// work; used by baselines.
	FreeAck
)

// Has reports whether p includes flag f.
func (p Primitives) Has(f Primitives) bool { return p&f != 0 }

// SlotEvent summarises one resolved slot for tracing and live
// instrumentation. Slices alias simulator scratch buffers and are only
// valid during the observer call; copy to retain.
type SlotEvent struct {
	// Tick is the global tick index.
	Tick int `json:"tick"`
	// Slot is the slot index within the round.
	Slot int `json:"slot"`
	// Transmitters lists the nodes that transmitted.
	Transmitters []int `json:"tx"`
	// Decodes is the total number of successful receptions. A listener
	// keeps at most one frame per slot, so it equals len(Decoders).
	Decodes int `json:"decodes"`
	// MassDeliverers lists transmitters whose message reached their whole
	// alive neighbourhood this slot.
	MassDeliverers []int `json:"mass,omitempty"`
	// CDBusy and CDIdle count the carrier-sense outcomes observed by acting
	// nodes this slot (post fault corruption, i.e. what the protocols saw);
	// both are zero when the run does not grant the CD primitive.
	CDBusy int `json:"cd_busy,omitempty"`
	CDIdle int `json:"cd_idle,omitempty"`
	// Acks counts transmitters that observed a positive acknowledgement
	// (Def. ACK or FreeAck, whichever the run grants).
	Acks int `json:"acks,omitempty"`
	// NTDs counts listeners that observed a near-transmission this slot.
	NTDs int `json:"ntds,omitempty"`
	// Decoders lists the nodes that decoded a message this slot, in
	// ascending id order. Streaming analytics derive per-node latency
	// (first-decode tick) from it without replaying the run.
	Decoders []int `json:"decoders,omitempty"`
	// Seized counts transmitters whose action was seized by the fault
	// injector this slot (stuck/jamming carriers); zero in fault-free runs.
	// Analytics correlate it with decode rates.
	Seized int `json:"seized,omitempty"`
}

// Adversary resolves outcomes the model leaves unspecified. Implementations
// must be deterministic functions of their arguments (plus their own seeded
// randomness) for runs to be replayable.
type Adversary interface {
	// AckAmbiguous resolves an ACK outcome when Def. ACK allows either
	// answer: the transmission reached all neighbours but the sensed
	// interference exceeded the ACK threshold.
	AckAmbiguous(node, tick int) bool
}

// PessimisticAdversary answers every ambiguous question with the outcome
// least favourable to the algorithm. It is the default.
type PessimisticAdversary struct{}

var _ Adversary = PessimisticAdversary{}

// AckAmbiguous returns false: a delivered-but-noisy transmission is not
// acknowledged.
func (PessimisticAdversary) AckAmbiguous(node, tick int) bool { return false }

// OptimisticAdversary answers every ambiguous question favourably.
type OptimisticAdversary struct{}

var _ Adversary = OptimisticAdversary{}

// AckAmbiguous returns true.
func (OptimisticAdversary) AckAmbiguous(node, tick int) bool { return true }
