// Bridges between the facade types and the module's internal packages:
// benchmark/ (layers.go), internal/bench and a few root tests hold datasets
// and contact networks as internal values and hand them to streach.Open
// through these. The internal parameter types make the constructors
// uncallable from outside the module.

package streach

import (
	"streach/internal/contact"
	"streach/internal/trajectory"
)

// WrapDataset adapts an internal trajectory dataset to the facade type.
func WrapDataset(d *trajectory.Dataset) *Dataset { return &Dataset{d: d} }

// WrapContactNetwork adapts an internal contact network to the facade type.
func WrapContactNetwork(n *contact.Network) *ContactNetwork { return &ContactNetwork{net: n} }
