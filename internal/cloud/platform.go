// Package cloud models the IaaS platform hosting the target n-tier system:
// physical hosts with the memmodel memory subsystem, VM placement (and the
// adversary's co-location step), instance types, and a live Auto Scaling
// group that grows a tier's fleet when the CloudWatch-style trigger fires
// — the elasticity mechanism the MemCA attack is shown to bypass.
package cloud

import (
	"fmt"

	"memca/internal/memmodel"
)

// InstanceType names a VM shape, matching the paper's deployments.
type InstanceType struct {
	// Name is the provider's type name.
	Name string
	// VCPUs is the virtual CPU count.
	VCPUs int
	// MemoryGB is the instance memory.
	MemoryGB float64
}

// C3Large is the paper's EC2 instance type (2 vCPU, 3.75 GB).
func C3Large() InstanceType { return InstanceType{Name: "c3.large", VCPUs: 2, MemoryGB: 3.75} }

// PrivateCloudVM is the paper's private-cloud VM shape (1 vCPU, 2 GB).
func PrivateCloudVM() InstanceType { return InstanceType{Name: "private-1vcpu", VCPUs: 1, MemoryGB: 2} }

// HostNode is one physical machine with its memory-subsystem model.
type HostNode struct {
	// ID is the platform-unique host name.
	ID string
	// Mem models the host's shared on-chip memory resources.
	Mem *memmodel.Host
}

// Placement records where a VM landed.
type Placement struct {
	// VM is the VM ID.
	VM string
	// Host is the host ID.
	Host string
	// Type is the instance shape.
	Type InstanceType
}

// Platform is a small IaaS: hosts plus a placement map.
type Platform struct {
	hosts      []*HostNode
	placements map[string]Placement
}

// NewPlatform returns an empty platform.
func NewPlatform() *Platform {
	return &Platform{placements: make(map[string]Placement)}
}

// AddHost registers a physical machine. Host IDs must be unique.
func (p *Platform) AddHost(id string, cfg memmodel.HostConfig) (*HostNode, error) {
	if id == "" {
		return nil, fmt.Errorf("cloud: host ID must not be empty")
	}
	for _, h := range p.hosts {
		if h.ID == id {
			return nil, fmt.Errorf("cloud: duplicate host ID %q", id)
		}
	}
	mem, err := memmodel.NewHost(cfg)
	if err != nil {
		return nil, fmt.Errorf("cloud: host %q: %w", id, err)
	}
	node := &HostNode{ID: id, Mem: mem}
	p.hosts = append(p.hosts, node)
	return node, nil
}

// Host returns the host with the given ID.
func (p *Platform) Host(id string) (*HostNode, error) {
	for _, h := range p.hosts {
		if h.ID == id {
			return h, nil
		}
	}
	return nil, fmt.Errorf("cloud: no host %q", id)
}

// Place puts a VM of the given type on a host. pkg is the package pin, or
// memmodel.FloatingPackage.
func (p *Platform) Place(vmID, hostID string, instType InstanceType, pkg int) error {
	if _, dup := p.placements[vmID]; dup {
		return fmt.Errorf("cloud: VM %q already placed", vmID)
	}
	host, err := p.Host(hostID)
	if err != nil {
		return err
	}
	if _, err := host.Mem.AddVM(memmodel.VM{ID: vmID, Package: pkg}); err != nil {
		return fmt.Errorf("cloud: placing %q on %q: %w", vmID, hostID, err)
	}
	p.placements[vmID] = Placement{VM: vmID, Host: hostID, Type: instType}
	return nil
}

// HostOf returns the host node a VM runs on.
func (p *Platform) HostOf(vmID string) (*HostNode, error) {
	pl, ok := p.placements[vmID]
	if !ok {
		return nil, fmt.Errorf("cloud: VM %q not placed", vmID)
	}
	return p.Host(pl.Host)
}

// CoLocate places an adversary VM on the same host as the target VM — the
// attack's prerequisite step (the paper cites Ristenpart-style placement
// techniques; here the platform grants it directly since co-location is
// orthogonal to the study).
func (p *Platform) CoLocate(adversaryID, targetVMID string, instType InstanceType, pkg int) error {
	pl, ok := p.placements[targetVMID]
	if !ok {
		return fmt.Errorf("cloud: target VM %q not placed", targetVMID)
	}
	return p.Place(adversaryID, pl.Host, instType, pkg)
}
