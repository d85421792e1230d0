// Package directive is a lint fixture: malformed //lint:ok directives, and
// well-formed ones naming a rule the suite does not have, are themselves
// findings (under the "directive" rule), checked by a dedicated test
// rather than `// want` comments.
package directive

//lint:ok
func missingRuleAndReason() {}

//lint:ok errdrop
func missingReason() {}

//lint:ok errdrop a well-formed directive that suppresses nothing is fine
func wellFormed() {}

//lint:ok retired a directive left behind by a deleted rule suppresses nothing
func unknownRule() {}
