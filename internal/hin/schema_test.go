package hin

import (
	"strings"
	"testing"
)

func userSchema(t testing.TB) *Schema {
	t.Helper()
	s, err := NewSchema(
		[]EntityType{{Name: "User", Attrs: []string{"yob", "gender"}, SetAttrs: []string{"tags"}}},
		[]LinkType{
			{Name: "follow", From: "User", To: "User"},
			{Name: "mention", From: "User", To: "User", Weighted: true},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSchemaValid(t *testing.T) {
	s := userSchema(t)
	if s.NumEntityTypes() != 1 || s.NumLinkTypes() != 2 {
		t.Fatalf("got %d entity types, %d link types", s.NumEntityTypes(), s.NumLinkTypes())
	}
	if !s.Heterogeneous() {
		t.Fatal("|L|>1 must be heterogeneous (Definition 2)")
	}
	if id, ok := s.EntityTypeID("User"); !ok || id != 0 {
		t.Fatalf("EntityTypeID(User) = %d, %v", id, ok)
	}
	if id, ok := s.LinkTypeID("mention"); !ok || id != 1 {
		t.Fatalf("LinkTypeID(mention) = %d, %v", id, ok)
	}
	if _, ok := s.LinkTypeID("nope"); ok {
		t.Fatal("unknown link type resolved")
	}
	if i := s.AttrIndex(0, "gender"); i != 1 {
		t.Fatalf("AttrIndex(gender) = %d", i)
	}
	if i := s.AttrIndex(0, "missing"); i != -1 {
		t.Fatalf("AttrIndex(missing) = %d", i)
	}
	if i := s.SetAttrIndex(0, "tags"); i != 0 {
		t.Fatalf("SetAttrIndex(tags) = %d", i)
	}
	if i := s.SetAttrIndex(0, "missing"); i != -1 {
		t.Fatalf("SetAttrIndex(missing) = %d", i)
	}
}

func TestHomogeneousSchema(t *testing.T) {
	s, err := NewSchema(
		[]EntityType{{Name: "Node"}},
		[]LinkType{{Name: "edge", From: "Node", To: "Node"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if s.Heterogeneous() {
		t.Fatal("single entity and link type must be homogeneous")
	}
}

func TestNewSchemaErrors(t *testing.T) {
	cases := []struct {
		name string
		ets  []EntityType
		lts  []LinkType
	}{
		{"no entity types", nil, nil},
		{"empty entity name", []EntityType{{Name: ""}}, nil},
		{"dup entity name", []EntityType{{Name: "A"}, {Name: "A"}}, nil},
		{"empty attr name", []EntityType{{Name: "A", Attrs: []string{""}}}, nil},
		{"dup attr name", []EntityType{{Name: "A", Attrs: []string{"x", "x"}}}, nil},
		{"empty set attr", []EntityType{{Name: "A", SetAttrs: []string{""}}}, nil},
		{"dup set attr", []EntityType{{Name: "A", SetAttrs: []string{"t", "t"}}}, nil},
		{"empty link name", []EntityType{{Name: "A"}}, []LinkType{{Name: "", From: "A", To: "A"}}},
		{"dup link name", []EntityType{{Name: "A"}},
			[]LinkType{{Name: "l", From: "A", To: "A"}, {Name: "l", From: "A", To: "A"}}},
		{"unknown from", []EntityType{{Name: "A"}}, []LinkType{{Name: "l", From: "B", To: "A"}}},
		{"unknown to", []EntityType{{Name: "A"}}, []LinkType{{Name: "l", From: "A", To: "B"}}},
	}
	for _, tc := range cases {
		if _, err := NewSchema(tc.ets, tc.lts); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustSchema must panic on invalid schema")
		}
	}()
	MustSchema(nil, nil)
}

func TestLinkTypesFrom(t *testing.T) {
	s := MustSchema(
		[]EntityType{{Name: "User"}, {Name: "Tweet"}},
		[]LinkType{
			{Name: "post", From: "User", To: "Tweet"},
			{Name: "follow", From: "User", To: "User"},
			{Name: "mention", From: "Tweet", To: "User"},
		},
	)
	uid, _ := s.EntityTypeID("User")
	got := s.LinkTypesFrom(uid)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("LinkTypesFrom(User) = %v", got)
	}
}

func TestSchemaString(t *testing.T) {
	s := userSchema(t)
	out := s.String()
	for _, want := range []string{"entity User(yob, gender | tags)", "follow: User -> User", "mention: User -> User [weighted]"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q in:\n%s", want, out)
		}
	}
}

func TestMustLinkTypeIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown link type")
		}
	}()
	userSchema(t).MustLinkTypeID("nope")
}
