// Package directives is the fixture for directive validation: every
// malformed //dexvet: comment below, and the well-formed allow that
// suppresses nothing, must come back as a finding under the
// unsuppressible "dexvet" pseudo-rule.
package directives

//dexvet:allow stub
func missingReason() {}

//dexvet:allow nosuchrule because reasons
func unknownRule() {}

//dexvet:frobnicate
func unknownDirective() {}

func floating() {
	//dexvet:noalloc
	_ = 1
}

// valid carries a well-formed allow, but the stub analyzer reports
// nothing for it to suppress: the one finding it draws is "unused".
//
//dexvet:allow stub fixture: well-formed directive
func valid() {}
