//! Serialization round-trip coverage: every corpus program, every catalog
//! version dialect, plus hand-written edge-case inputs.

use siro_ir::{interp::Machine, parse, verify, write, IrVersion};

/// write -> parse -> write is textually idempotent, and the reparsed module
/// behaves identically, for every corpus case in every version that can
/// express it.
#[test]
fn corpus_roundtrips_in_every_dialect() {
    for version in IrVersion::CATALOG {
        for case in siro_testcases::full_corpus() {
            if !case.usable_for_pair(version, version) {
                continue;
            }
            let m = case.build(version);
            let t1 = write::write_module(&m);
            let parsed = parse::parse_module(&t1)
                .unwrap_or_else(|e| panic!("{} at {version}: {e}\n{t1}", case.name));
            verify::verify_module(&parsed)
                .unwrap_or_else(|e| panic!("{} at {version}: {e}", case.name));
            let t2 = write::write_module(&parsed);
            assert_eq!(t1, t2, "{} at {version} not idempotent", case.name);
            let got = Machine::new(&parsed).run_main().unwrap().return_int();
            assert_eq!(got, Some(case.oracle), "{} at {version}", case.name);
        }
    }
}

#[test]
fn parses_inline_asm_callee() {
    let text = "\
; IR version 13.0

define i32 @main() {
entry:
  %v = call i32 asm \"ret 9\", \"r\" hwlevel 1 ()
  ret i32 %v
}
";
    let m = parse::parse_module(text).unwrap();
    assert_eq!(m.asms.len(), 1);
    assert_eq!(Machine::new(&m).run_main().unwrap().return_int(), Some(9));
    // And it round-trips.
    let t1 = write::write_module(&m);
    let m2 = parse::parse_module(&t1).unwrap();
    assert_eq!(t1, write::write_module(&m2));
}

#[test]
fn parses_varargs_declaration() {
    let text = "\
; IR version 13.0

declare i32 @printf(i8* %fmt, ...)

define i32 @main() {
entry:
  ret i32 0
}
";
    let m = parse::parse_module(text).unwrap();
    let f = m.func(m.func_by_name("printf").unwrap());
    assert!(f.is_external);
    assert!(f.varargs);
    assert_eq!(f.params.len(), 1);
}

#[test]
fn parses_global_byte_initializer() {
    let text = "\
; IR version 13.0

@msg = constant [4 x i8] c\"\\48\\69\\21\\00\"

define i32 @main() {
entry:
  %p = getelementptr [4 x i8], [4 x i8]* @msg, i64 0, i64 1
  %c = load i8, i8* %p
  %v = zext i8 %c to i32
  ret i32 %v
}
";
    let m = parse::parse_module(text).unwrap();
    verify::verify_module(&m).unwrap();
    assert_eq!(
        Machine::new(&m).run_main().unwrap().return_int(),
        Some(0x69)
    );
}

#[test]
fn parses_vector_types_and_ops() {
    let text = "\
; IR version 13.0

define i32 @main() {
entry:
  %v = insertelement <4 x i32> zeroinitializer, i32 7, i32 3
  %w = add <4 x i32> %v, %v
  %e = extractelement <4 x i32> %w, i32 3
  ret i32 %e
}
";
    let m = parse::parse_module(text).unwrap();
    verify::verify_module(&m).unwrap();
    assert_eq!(Machine::new(&m).run_main().unwrap().return_int(), Some(14));
}

#[test]
fn parses_opaque_pointer_dialect() {
    let text = "\
; IR version 15.0

define i32 @main() {
entry:
  %p = alloca i32
  store i32 6, ptr %p
  %v = load i32, ptr %p
  ret i32 %v
}
";
    let m = parse::parse_module(text).unwrap();
    assert_eq!(m.version, IrVersion::V15_0);
    assert_eq!(Machine::new(&m).run_main().unwrap().return_int(), Some(6));
}

#[test]
fn old_dialect_rejects_nothing_but_reads_old_loads() {
    // A 3.0 module with the pre-3.7 load/gep spelling.
    let text = "\
; IR version 3.0

define i32 @main() {
entry:
  %a = alloca [2 x i32]
  %p = getelementptr [2 x i32]* %a, i64 0, i64 1
  store i32 5, i32* %p
  %v = load i32* %p
  ret i32 %v
}
";
    let m = parse::parse_module(text).unwrap();
    verify::verify_module(&m).unwrap();
    assert_eq!(Machine::new(&m).run_main().unwrap().return_int(), Some(5));
}

#[test]
fn error_reports_carry_line_numbers() {
    let bad_inputs = [
        (
            "; IR version 13.0\n\ndefine i32 @main() {\nentry:\n  %x = bogus i32 1\n}\n",
            5,
        ),
        (
            "; IR version 13.0\n\ndefine i32 @main() {\nentry:\n  %x = add i32 1\n}\n",
            5,
        ),
        (
            "; IR version 13.0\n\ndefine i32 @main() {\nentry:\n  br label %nowhere\n}\n",
            5,
        ),
    ];
    for (text, line) in bad_inputs {
        match parse::parse_module(text) {
            Err(siro_ir::IrError::Parse { line: l, .. }) => {
                assert_eq!(l, line, "wrong line for {text:?}")
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }
}

#[test]
fn unknown_symbols_are_rejected() {
    let text = "\
; IR version 13.0

define i32 @main() {
entry:
  %v = call i32 @missing()
  ret i32 %v
}
";
    assert!(parse::parse_module(text).is_err());
}

#[test]
fn negative_and_hex_constants() {
    let text = "\
; IR version 13.0

define i32 @main() {
entry:
  %a = add i32 -7, -3
  %f = fadd double 0x4000000000000000, 0x3ff0000000000000
  %i = fptosi double %f to i32
  %s = add i32 %a, %i
  ret i32 %s
}
";
    let m = parse::parse_module(text).unwrap();
    assert_eq!(Machine::new(&m).run_main().unwrap().return_int(), Some(-7));
}

#[test]
fn workload_modules_roundtrip() {
    // Bigger, generated modules (globals + many functions) survive the trip
    // in both dialect families.
    for spec in &siro_workloads::table4_projects() {
        for (fe, version) in [
            (siro_workloads::Frontend::Low, IrVersion::V3_6),
            (siro_workloads::Frontend::High, IrVersion::V13_0),
        ] {
            let m = siro_workloads::compile_project(spec, fe, version);
            let t1 = write::write_module(&m);
            let parsed =
                parse::parse_module(&t1).unwrap_or_else(|e| panic!("{} ({fe:?}): {e}", spec.name));
            let t2 = write::write_module(&parsed);
            assert_eq!(t1, t2, "{} ({fe:?})", spec.name);
        }
    }
}
