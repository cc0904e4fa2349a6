// Package relational implements the in-memory relational engine that
// PRIVATE-IYE remote sources wrap. The paper's Query Transformer turns
// mediator query fragments into "an appropriate query language for the
// destination source — for example, if an RDBMS is being queried, then it
// generates SQL" (Section 4). This package is that destination: typed
// tables, predicate expressions, select/project/join/group-aggregate
// evaluation, and a catalog, all deterministic and dependency-free.
package relational

import (
	"fmt"
	"strconv"
)

// Type enumerates column types.
type Type int

const (
	// TString is a UTF-8 string column.
	TString Type = iota
	// TFloat is a float64 column.
	TFloat
	// TInt is an int64 column.
	TInt
	// TBool is a boolean column.
	TBool
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TString:
		return "TEXT"
	case TFloat:
		return "REAL"
	case TInt:
		return "INTEGER"
	case TBool:
		return "BOOLEAN"
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// Value is one typed cell. Null is represented by IsNull; the zero Value is
// a null string.
type Value struct {
	Kind   Type
	IsNull bool
	S      string
	F      float64
	I      int64
	B      bool
}

// Null returns a null value of the given type.
func Null(t Type) Value { return Value{Kind: t, IsNull: true} }

// S returns a string value.
func Str(s string) Value { return Value{Kind: TString, S: s} }

// F returns a float value.
func Float(f float64) Value { return Value{Kind: TFloat, F: f} }

// I returns an integer value.
func Int(i int64) Value { return Value{Kind: TInt, I: i} }

// B returns a boolean value.
func Bool(b bool) Value { return Value{Kind: TBool, B: b} }

// String renders the value for display and XML shipping.
func (v Value) String() string {
	if v.IsNull {
		return ""
	}
	switch v.Kind {
	case TString:
		return v.S
	case TFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TInt:
		return strconv.FormatInt(v.I, 10)
	case TBool:
		return strconv.FormatBool(v.B)
	}
	return ""
}

// appendText appends exactly what String renders, without the
// intermediate string.
func (v Value) appendText(b []byte) []byte {
	if v.IsNull {
		return b
	}
	switch v.Kind {
	case TString:
		return append(b, v.S...)
	case TFloat:
		return strconv.AppendFloat(b, v.F, 'g', -1, 64)
	case TInt:
		return strconv.AppendInt(b, v.I, 10)
	case TBool:
		return strconv.AppendBool(b, v.B)
	}
	return b
}

// AsFloat coerces numeric values to float64; strings parse if possible.
func (v Value) AsFloat() (float64, bool) {
	if v.IsNull {
		return 0, false
	}
	switch v.Kind {
	case TFloat:
		return v.F, true
	case TInt:
		return float64(v.I), true
	case TString:
		f, err := strconv.ParseFloat(v.S, 64)
		return f, err == nil
	case TBool:
		if v.B {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// ParseValue parses s as a value of type t. Empty string parses to null.
func ParseValue(t Type, s string) (Value, error) {
	if s == "" {
		return Null(t), nil
	}
	switch t {
	case TString:
		return Str(s), nil
	case TFloat:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Value{}, fmt.Errorf("relational: parse %q as REAL: %w", s, err)
		}
		return Float(f), nil
	case TInt:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("relational: parse %q as INTEGER: %w", s, err)
		}
		return Int(i), nil
	case TBool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return Value{}, fmt.Errorf("relational: parse %q as BOOLEAN: %w", s, err)
		}
		return Bool(b), nil
	}
	return Value{}, fmt.Errorf("relational: unknown type %v", t)
}

// Compare orders two values of the same kind: -1, 0, +1. Nulls sort first.
// Comparing values of different kinds compares their float coercions when
// both are numeric, otherwise their string forms.
func Compare(a, b Value) int {
	switch {
	case a.IsNull && b.IsNull:
		return 0
	case a.IsNull:
		return -1
	case b.IsNull:
		return 1
	}
	if a.Kind == b.Kind {
		switch a.Kind {
		case TString:
			switch {
			case a.S < b.S:
				return -1
			case a.S > b.S:
				return 1
			}
			return 0
		case TFloat:
			return cmpFloat(a.F, b.F)
		case TInt:
			switch {
			case a.I < b.I:
				return -1
			case a.I > b.I:
				return 1
			}
			return 0
		case TBool:
			switch {
			case !a.B && b.B:
				return -1
			case a.B && !b.B:
				return 1
			}
			return 0
		}
	}
	af, aok := a.AsFloat()
	bf, bok := b.AsFloat()
	if aok && bok {
		return cmpFloat(af, bf)
	}
	as, bs := a.String(), b.String()
	switch {
	case as < bs:
		return -1
	case as > bs:
		return 1
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
