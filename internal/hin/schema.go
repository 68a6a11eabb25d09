// Package hin implements the heterogeneous information network (HIN) model
// of Zhang et al. (EDBT 2014), Definitions 1-5: directed graphs whose
// entities (nodes) and links (edges) each belong to one of several declared
// types, a schema describing the meta structure, meta paths over the
// schema, and the projection of a full network onto a target network schema
// with short-circuited link features.
//
// Graphs are immutable after construction and stored in compressed
// sparse-row form per link type, so they scale to millions of entities;
// a Builder accumulates entities and edges and freezes them into a Graph.
package hin

import (
	"fmt"
	"strings"
)

// EntityID identifies an entity within one Graph. IDs are dense, starting
// at zero in insertion order.
type EntityID int32

// NoEntity is the sentinel returned by lookups that find nothing.
const NoEntity EntityID = -1

// EntityTypeID indexes a Schema's entity types.
type EntityTypeID uint8

// LinkTypeID indexes a Schema's link types.
type LinkTypeID uint8

// EntityType declares one type of entity and the names of its int64-valued
// attributes. Attribute order is significant: Builder.AddEntity takes
// values positionally and Graph.Attr retrieves them by index.
type EntityType struct {
	Name  string
	Attrs []string
	// SetAttrs names optional multi-valued int32 attributes (such as the
	// t.qq tag-ID sets), stored separately from the scalar attributes.
	SetAttrs []string
}

// LinkType declares one type of directed link between two entity types.
type LinkType struct {
	Name string
	// From and To name the source and destination entity types.
	From, To string
	// AllowSelf reports whether an entity may link to itself via this
	// type. It feeds the m vs |L|-m split in the paper's Equation 4
	// density denominator.
	AllowSelf bool
	// Weighted reports whether edges of this type carry an integer
	// strength (e.g. mention strength); unweighted edges store weight 1.
	Weighted bool
}

// Schema is the network schema T_G = (E, L) of Definition 3: a meta
// template declaring the entity types and the typed links among them.
type Schema struct {
	entityTypes []EntityType
	linkTypes   []LinkType
	linkEnds    [][2]EntityTypeID // per link type: source and destination entity type
	etByName    map[string]EntityTypeID
	ltByName    map[string]LinkTypeID
	attrIndex   []map[string]int // per entity type: attr name -> position
	setIndex    []map[string]int // per entity type: set attr name -> position
}

// NewSchema validates and builds a schema from the given entity and link
// types. Entity type names, link type names, and attribute names within a
// type must be unique and non-empty; every link endpoint must name a
// declared entity type.
func NewSchema(entityTypes []EntityType, linkTypes []LinkType) (*Schema, error) {
	if len(entityTypes) == 0 {
		return nil, fmt.Errorf("hin: schema needs at least one entity type")
	}
	if len(entityTypes) > 250 || len(linkTypes) > 250 {
		return nil, fmt.Errorf("hin: too many types (max 250)")
	}
	s := &Schema{
		entityTypes: append([]EntityType(nil), entityTypes...),
		linkTypes:   append([]LinkType(nil), linkTypes...),
		etByName:    make(map[string]EntityTypeID, len(entityTypes)),
		ltByName:    make(map[string]LinkTypeID, len(linkTypes)),
	}
	for i, et := range s.entityTypes {
		if et.Name == "" {
			return nil, fmt.Errorf("hin: entity type %d has empty name", i)
		}
		if _, dup := s.etByName[et.Name]; dup {
			return nil, fmt.Errorf("hin: duplicate entity type %q", et.Name)
		}
		s.etByName[et.Name] = EntityTypeID(i)
		attrs := make(map[string]int, len(et.Attrs))
		for j, a := range et.Attrs {
			if a == "" {
				return nil, fmt.Errorf("hin: entity type %q attr %d has empty name", et.Name, j)
			}
			if _, dup := attrs[a]; dup {
				return nil, fmt.Errorf("hin: entity type %q has duplicate attr %q", et.Name, a)
			}
			attrs[a] = j
		}
		s.attrIndex = append(s.attrIndex, attrs)
		sets := make(map[string]int, len(et.SetAttrs))
		for j, a := range et.SetAttrs {
			if a == "" {
				return nil, fmt.Errorf("hin: entity type %q set attr %d has empty name", et.Name, j)
			}
			if _, dup := sets[a]; dup {
				return nil, fmt.Errorf("hin: entity type %q has duplicate set attr %q", et.Name, a)
			}
			sets[a] = j
		}
		s.setIndex = append(s.setIndex, sets)
	}
	for i, lt := range s.linkTypes {
		if lt.Name == "" {
			return nil, fmt.Errorf("hin: link type %d has empty name", i)
		}
		if _, dup := s.ltByName[lt.Name]; dup {
			return nil, fmt.Errorf("hin: duplicate link type %q", lt.Name)
		}
		from, ok := s.etByName[lt.From]
		if !ok {
			return nil, fmt.Errorf("hin: link type %q: unknown source entity type %q", lt.Name, lt.From)
		}
		to, ok := s.etByName[lt.To]
		if !ok {
			return nil, fmt.Errorf("hin: link type %q: unknown destination entity type %q", lt.Name, lt.To)
		}
		s.ltByName[lt.Name] = LinkTypeID(i)
		s.linkEnds = append(s.linkEnds, [2]EntityTypeID{from, to})
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error, for statically known
// schemas such as the built-in t.qq ones.
func MustSchema(entityTypes []EntityType, linkTypes []LinkType) *Schema {
	s, err := NewSchema(entityTypes, linkTypes)
	if err != nil {
		panic(err)
	}
	return s
}

// NumEntityTypes returns |E| of Definition 2.
func (s *Schema) NumEntityTypes() int { return len(s.entityTypes) }

// NumLinkTypes returns |L| of Definition 2.
func (s *Schema) NumLinkTypes() int { return len(s.linkTypes) }

// LinkTypesOrAll resolves a utilized link-type list: lts itself, or every
// link type in id order when lts is empty. It is the one place the
// "empty means all" default of dehin.Config.LinkTypes and
// risk.SignatureConfig.LinkTypes is worked out.
func (s *Schema) LinkTypesOrAll(lts []LinkTypeID) []LinkTypeID {
	if len(lts) > 0 {
		return lts
	}
	all := make([]LinkTypeID, len(s.linkTypes))
	for i := range all {
		all[i] = LinkTypeID(i)
	}
	return all
}

// Heterogeneous reports whether the schema describes a heterogeneous
// information network per Definition 2 (|E| > 1 or |L| > 1).
func (s *Schema) Heterogeneous() bool {
	return len(s.entityTypes) > 1 || len(s.linkTypes) > 1
}

// EntityType returns the declaration of entity type id.
func (s *Schema) EntityType(id EntityTypeID) EntityType { return s.entityTypes[id] }

// LinkType returns the declaration of link type id.
func (s *Schema) LinkType(id LinkTypeID) LinkType { return s.linkTypes[id] }

// checkEdge enforces the per-edge rules of link type lt for an edge
// from -> to of strength w whose endpoints have entity types fromType and
// toType: the endpoint types match the declaration (compared by type ID),
// a self-loop needs AllowSelf, and the strength is positive, and 1 on an
// unweighted link type. Builder.AddEdge and WithOutRows both call it, after
// their own range checks.
func (s *Schema) checkEdge(lt LinkTypeID, fromType, toType EntityTypeID, from, to EntityID, w int32) error {
	decl := &s.linkTypes[lt]
	switch {
	case fromType != s.linkEnds[lt][0]:
		return fmt.Errorf("hin: link %q requires source type %q, entity %d has %q",
			decl.Name, decl.From, from, s.entityTypes[fromType].Name)
	case toType != s.linkEnds[lt][1]:
		return fmt.Errorf("hin: link %q requires destination type %q, entity %d has %q",
			decl.Name, decl.To, to, s.entityTypes[toType].Name)
	case from == to && !decl.AllowSelf:
		return fmt.Errorf("hin: link %q forbids self-loops (entity %d)", decl.Name, from)
	case w <= 0:
		return fmt.Errorf("hin: edge strength must be positive, got %d", w)
	case !decl.Weighted && w != 1:
		return fmt.Errorf("hin: unweighted link %q requires strength 1, got %d", decl.Name, w)
	}
	return nil
}

// EntityTypeID resolves an entity type by name.
func (s *Schema) EntityTypeID(name string) (EntityTypeID, bool) {
	id, ok := s.etByName[name]
	return id, ok
}

// LinkTypeID resolves a link type by name.
func (s *Schema) LinkTypeID(name string) (LinkTypeID, bool) {
	id, ok := s.ltByName[name]
	return id, ok
}

// MustLinkTypeID resolves a link type by name, panicking if absent; it is
// meant for statically known names.
func (s *Schema) MustLinkTypeID(name string) LinkTypeID {
	id, ok := s.ltByName[name]
	if !ok {
		panic(fmt.Sprintf("hin: unknown link type %q", name))
	}
	return id
}

// AttrIndex returns the position of attribute name within entity type t,
// or -1 if t has no such attribute.
func (s *Schema) AttrIndex(t EntityTypeID, name string) int {
	if i, ok := s.attrIndex[t][name]; ok {
		return i
	}
	return -1
}

// SetAttrIndex returns the position of multi-valued attribute name within
// entity type t, or -1 if t has no such set attribute.
func (s *Schema) SetAttrIndex(t EntityTypeID, name string) int {
	if i, ok := s.setIndex[t][name]; ok {
		return i
	}
	return -1
}

// LinkTypesFrom returns the ids of all link types whose source is entity
// type t.
func (s *Schema) LinkTypesFrom(t EntityTypeID) []LinkTypeID {
	var out []LinkTypeID
	name := s.entityTypes[t].Name
	for i, lt := range s.linkTypes {
		if lt.From == name {
			out = append(out, LinkTypeID(i))
		}
	}
	return out
}

// String renders the schema in a compact one-line-per-type form, e.g.
//
//	entity User(yob, gender, tweets, numtags | tags)
//	link   follow: User -> User
func (s *Schema) String() string {
	var b strings.Builder
	for _, et := range s.entityTypes {
		fmt.Fprintf(&b, "entity %s(%s", et.Name, strings.Join(et.Attrs, ", "))
		if len(et.SetAttrs) > 0 {
			fmt.Fprintf(&b, " | %s", strings.Join(et.SetAttrs, ", "))
		}
		b.WriteString(")\n")
	}
	for _, lt := range s.linkTypes {
		fmt.Fprintf(&b, "link   %s: %s -> %s", lt.Name, lt.From, lt.To)
		var flags []string
		if lt.Weighted {
			flags = append(flags, "weighted")
		}
		if lt.AllowSelf {
			flags = append(flags, "self")
		}
		if len(flags) > 0 {
			fmt.Fprintf(&b, " [%s]", strings.Join(flags, ","))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
