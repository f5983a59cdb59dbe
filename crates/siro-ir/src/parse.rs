//! The IR Reader ("load a persisted IR program into the memory", Tab. 2).
//!
//! Parses the version-flavoured textual format produced by
//! [`write::write_module`](crate::write::write_module). The accepted syntax
//! follows the module's declared version: pre-3.7 `load i32* %p`, post-3.7
//! `load i32, i32* %p`, and opaque `ptr` types from 15.0 on.

use std::collections::HashMap;

use crate::ctx::OpVec;
use crate::error::{IrError, IrResult};
use crate::inst::{AtomicOrdering, FloatPredicate, InstAttrs, Instruction, IntPredicate, RmwOp};
use crate::module::{Function, Global, GlobalInit, InlineAsm, Module, Param};
use crate::opcode::Opcode;
use crate::types::{Type, TypeId};
use crate::value::{BlockId, InstId, ValueRef};
use crate::version::IrVersion;

/// Parses a textual IR module.
///
/// The text must carry the writer's `; IR version X.Y` header, which selects
/// the accepted syntax.
///
/// # Errors
///
/// Returns [`IrError::Parse`] with a line number on malformed input.
pub fn parse_module(text: &str) -> IrResult<Module> {
    let version = text
        .lines()
        .take(8)
        .find_map(|l| l.trim().strip_prefix("; IR version "))
        .and_then(|v| {
            let (maj, min) = v.trim().split_once('.')?;
            Some(IrVersion::new(maj.parse().ok()?, min.parse().ok()?))
        })
        .ok_or_else(|| IrError::Parse {
            line: 1,
            message: "missing `; IR version X.Y` header".into(),
        })?;
    parse_module_as(text, version)
}

/// Parses a textual IR module, forcing the given version's syntax.
///
/// # Errors
///
/// Returns [`IrError::Parse`] with a line number on malformed input.
pub fn parse_module_as(text: &str, version: IrVersion) -> IrResult<Module> {
    let name = text
        .lines()
        .take(4)
        .find_map(|l| l.trim().strip_prefix("; ModuleID = '"))
        .and_then(|r| r.strip_suffix('\''))
        .unwrap_or("parsed")
        .to_string();
    let mut module = Module::new(name, version);
    let lines: Vec<&str> = text.lines().collect();
    let mut i = 0;
    // Pass 0: pre-register all function symbols so calls resolve forward.
    let mut pending_defs: Vec<(usize, usize)> = Vec::new(); // (header line, body end)
    {
        let mut j = 0;
        while j < lines.len() {
            let line = lines[j].trim();
            if line.starts_with("define ") {
                let start = j;
                let mut end = j + 1;
                while end < lines.len() && lines[end].trim() != "}" {
                    end += 1;
                }
                pending_defs.push((start, end));
                // Register the symbol now.
                let (ret_ty, fname, params, varargs) =
                    parse_signature(&mut module, lines[start], start + 1)?;
                let mut f = Function::new(fname, ret_ty, params);
                f.varargs = varargs;
                module.add_func(f);
                j = end + 1;
                continue;
            }
            if line.starts_with("declare ") {
                let (ret_ty, fname, params, varargs) = parse_signature(&mut module, line, j + 1)?;
                let mut f = Function::external(fname, ret_ty, params);
                f.varargs = varargs;
                module.add_func(f);
            } else if line.starts_with('@') {
                parse_global(&mut module, line, j + 1)?;
            }
            j += 1;
        }
    }
    // Pass 1: parse function bodies.
    let mut def_idx = 0;
    while i < lines.len() {
        let line = lines[i].trim();
        if line.starts_with("define ") {
            let (start, end) = pending_defs[def_idx];
            debug_assert_eq!(start, i);
            def_idx += 1;
            parse_body(&mut module, def_idx, &lines, start, end)?;
            i = end + 1;
            continue;
        }
        i += 1;
    }
    Ok(module)
}

fn parse_body(
    module: &mut Module,
    nth_def: usize,
    lines: &[&str],
    start: usize,
    end: usize,
) -> IrResult<()> {
    // Locate the function id: the nth non-external function.
    let fid = module
        .func_ids()
        .filter(|&f| !module.func(f).is_external)
        .nth(nth_def - 1)
        .ok_or_else(|| IrError::Parse {
            line: start + 1,
            message: "internal: function registration mismatch".into(),
        })?;
    // Pre-pass: block labels and instruction result names. Keys borrow
    // straight from the input text; the whole pass allocates only the two
    // tables (plus one cosmetic name String per block).
    let mut block_names: HashMap<&str, BlockId> = HashMap::new();
    let mut inst_names: HashMap<&str, InstId> = HashMap::new();
    let mut next_inst = 0u32;
    for raw in &lines[start + 1..end] {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(label) = line.strip_suffix(':') {
            let bid = module.func_mut(fid).add_block(label_to_name(label));
            block_names.insert(label, bid);
        } else {
            if let Some((lhs, _)) = line.split_once('=') {
                let lhs = lhs.trim();
                if let Some(n) = lhs.strip_prefix('%') {
                    if !line.starts_with("br ") && lhs.split_whitespace().count() == 1 {
                        inst_names.insert(n, InstId::new(next_inst));
                    }
                }
            }
            next_inst += 1;
        }
    }
    let param_names: HashMap<String, u32> = module
        .func(fid)
        .params
        .iter()
        .enumerate()
        .map(|(i, p)| (p.name.clone(), i as u32))
        .collect();
    // Parse instructions.
    let mut cur_block: Option<BlockId> = None;
    for (off, raw) in lines[start + 1..end].iter().enumerate() {
        let lineno = start + 2 + off;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(label) = line.strip_suffix(':') {
            cur_block = Some(block_names[label]);
            continue;
        }
        let block = cur_block.ok_or_else(|| IrError::Parse {
            line: lineno,
            message: "instruction before any block label".into(),
        })?;
        let mut ctx = InstCtx {
            module,
            fid,
            block_names: &block_names,
            inst_names: &inst_names,
            param_names: &param_names,
            line: lineno,
        };
        let inst = ctx.parse_inst_line(line)?;
        module.func_mut(fid).push_inst(block, inst);
    }
    Ok(())
}

/// Characters of an unquoted `%local` / `@global` name: LLVM's unquoted
/// identifier set `[-a-zA-Z$._0-9]`, so writer output such as
/// `@http-parser_fn_0` reparses.
fn is_name_char(ch: char) -> bool {
    ch.is_ascii_alphanumeric() || matches!(ch, '_' | '.' | '-' | '$')
}

fn label_to_name(label: &str) -> String {
    // Writer emits `name.N`; recover the name part for cosmetics.
    match label.rsplit_once('.') {
        Some((name, idx)) if idx.chars().all(|c| c.is_ascii_digit()) => name.to_string(),
        _ => label.to_string(),
    }
}

fn strip_comment(line: &str) -> &str {
    // Don't cut inside strings; our writer never mixes ';' with strings.
    if line.contains('"') {
        return line;
    }
    match line.find(';') {
        Some(p) => &line[..p],
        None => line,
    }
}

fn parse_global(module: &mut Module, line: &str, lineno: usize) -> IrResult<()> {
    let err = |m: &str| IrError::Parse {
        line: lineno,
        message: m.into(),
    };
    let (name, rest) = line[1..]
        .split_once('=')
        .ok_or_else(|| err("expected `=`"))?;
    let name = name.trim().to_string();
    let mut c = Cursor::new(rest.trim(), lineno);
    let external = c.eat_word("external");
    let is_const = if c.eat_word("constant") {
        true
    } else if c.eat_word("global") {
        false
    } else {
        return Err(err("expected `global` or `constant`"));
    };
    let ty = c.parse_type(&mut module.types)?;
    let init = if external {
        GlobalInit::External
    } else if c.eat_word("zeroinitializer") {
        GlobalInit::Zero
    } else if c.peek_char() == Some('c') {
        c.bump();
        let s = c.parse_string()?;
        let mut bytes = Vec::new();
        let mut it = s.chars();
        while let Some(ch) = it.next() {
            if ch == '\\' {
                let h1 = it.next().unwrap_or('0');
                let h2 = it.next().unwrap_or('0');
                let b = u8::from_str_radix(&format!("{h1}{h2}"), 16).unwrap_or(0);
                bytes.push(b);
            } else {
                bytes.push(ch as u8);
            }
        }
        GlobalInit::Bytes(bytes)
    } else if c.rest().starts_with("0x") {
        let bits = c.parse_hex()?;
        GlobalInit::Float(f64::from_bits(bits))
    } else {
        GlobalInit::Int(c.parse_int()?)
    };
    module.add_global(Global {
        name,
        ty,
        init,
        is_const,
    });
    Ok(())
}

type Signature = (TypeId, String, Vec<Param>, bool);

fn parse_signature(module: &mut Module, line: &str, lineno: usize) -> IrResult<Signature> {
    let line = line.trim();
    let rest = line
        .strip_prefix("define ")
        .or_else(|| line.strip_prefix("declare "))
        .ok_or_else(|| IrError::Parse {
            line: lineno,
            message: "expected define/declare".into(),
        })?;
    let mut c = Cursor::new(rest.trim_end_matches('{').trim(), lineno);
    let ret_ty = c.parse_type(&mut module.types)?;
    let name = c.parse_global_name()?.to_string();
    c.expect('(')?;
    let mut params = Vec::new();
    let mut varargs = false;
    if !c.eat(')') {
        loop {
            if c.eat_word("...") {
                varargs = true;
                c.expect(')')?;
                break;
            }
            let ty = c.parse_type(&mut module.types)?;
            let pname = if c.peek_char() == Some('%') {
                c.parse_local_name()?.to_string()
            } else {
                format!("arg{}", params.len())
            };
            params.push(Param { name: pname, ty });
            if c.eat(')') {
                break;
            }
            c.expect(',')?;
        }
    }
    Ok((ret_ty, name, params, varargs))
}

struct InstCtx<'a, 'b> {
    module: &'a mut Module,
    fid: crate::value::FuncId,
    block_names: &'a HashMap<&'b str, BlockId>,
    inst_names: &'a HashMap<&'b str, InstId>,
    param_names: &'a HashMap<String, u32>,
    line: usize,
}

impl InstCtx<'_, '_> {
    fn err(&self, m: impl Into<String>) -> IrError {
        IrError::Parse {
            line: self.line,
            message: m.into(),
        }
    }

    fn resolve_local(&self, name: &str) -> IrResult<ValueRef> {
        if let Some(&i) = self.inst_names.get(name) {
            return Ok(ValueRef::Inst(i));
        }
        if let Some(&a) = self.param_names.get(name) {
            return Ok(ValueRef::Arg(a));
        }
        Err(self.err(format!("unknown local `%{name}`")))
    }

    fn resolve_global(&self, name: &str) -> IrResult<ValueRef> {
        if let Some(f) = self.module.func_by_name(name) {
            return Ok(ValueRef::Func(f));
        }
        if let Some(g) = self.module.global_by_name(name) {
            return Ok(ValueRef::Global(g));
        }
        Err(self.err(format!("unknown symbol `@{name}`")))
    }

    fn resolve_block(&self, c: &mut Cursor) -> IrResult<ValueRef> {
        c.skip_ws();
        if !c.eat_word("label") {
            return Err(self.err("expected `label`"));
        }
        let name = c.parse_local_name()?;
        self.block_names
            .get(name)
            .map(|&b| ValueRef::Block(b))
            .ok_or_else(|| self.err(format!("unknown block `%{name}`")))
    }

    /// Parses a value whose type is already known.
    fn parse_value(&mut self, c: &mut Cursor, ty: TypeId) -> IrResult<ValueRef> {
        c.skip_ws();
        match c.peek_char() {
            Some('%') => {
                let n = c.parse_local_name()?;
                self.resolve_local(n)
            }
            Some('@') => {
                let n = c.parse_global_name()?;
                self.resolve_global(n)
            }
            Some(ch) if ch.is_ascii_digit() || ch == '-' => {
                if c.rest().starts_with("0x") {
                    let bits = c.parse_hex()?;
                    if self.module.types.is_float(ty) {
                        Ok(ValueRef::ConstFloat { ty, bits })
                    } else {
                        Ok(ValueRef::ConstInt {
                            ty,
                            value: bits as i64,
                        })
                    }
                } else {
                    let v = c.parse_int()?;
                    if self.module.types.is_float(ty) {
                        Ok(ValueRef::const_float(ty, v as f64))
                    } else {
                        Ok(ValueRef::ConstInt { ty, value: v })
                    }
                }
            }
            _ => {
                if c.eat_word("null") {
                    Ok(ValueRef::Null(ty))
                } else if c.eat_word("undef") {
                    Ok(ValueRef::Undef(ty))
                } else if c.eat_word("zeroinitializer") {
                    Ok(ValueRef::ZeroInit(ty))
                } else {
                    Err(self.err(format!("cannot parse value near `{}`", c.rest_short())))
                }
            }
        }
    }

    /// Parses `ty value`.
    fn parse_tval(&mut self, c: &mut Cursor) -> IrResult<(TypeId, ValueRef)> {
        let ty = c.parse_type(&mut self.module.types)?;
        let v = self.parse_value(c, ty)?;
        Ok((ty, v))
    }

    #[allow(clippy::too_many_lines)]
    fn parse_inst_line(&mut self, line: &str) -> IrResult<Instruction> {
        let mut c = Cursor::new(line, self.line);
        // Optional `%name =` prefix.
        if line.starts_with('%') {
            let _ = c.parse_local_name()?;
            c.expect('=')?;
        }
        c.skip_ws();
        let tail = c.eat_word("tail");
        let word = c.parse_word()?;
        let void = self.module.types.void();
        let mut inst = match word {
            "ret" => {
                if c.eat_word("void") {
                    Instruction::new(Opcode::Ret, void, OpVec::new())
                } else {
                    let (_, v) = self.parse_tval(&mut c)?;
                    Instruction::new(Opcode::Ret, void, [v])
                }
            }
            "br" => {
                c.skip_ws();
                if c.rest().starts_with("label") {
                    let b = self.resolve_block(&mut c)?;
                    Instruction::new(Opcode::Br, void, [b])
                } else {
                    let (_, cond) = self.parse_tval(&mut c)?;
                    c.expect(',')?;
                    let t = self.resolve_block(&mut c)?;
                    c.expect(',')?;
                    let f = self.resolve_block(&mut c)?;
                    Instruction::new(Opcode::Br, void, [cond, t, f])
                }
            }
            "switch" => {
                let (_, v) = self.parse_tval(&mut c)?;
                c.expect(',')?;
                let def = self.resolve_block(&mut c)?;
                c.expect('[')?;
                let mut ops = OpVec::from([v, def]);
                loop {
                    c.skip_ws();
                    if c.eat(']') {
                        break;
                    }
                    let (_, cv) = self.parse_tval(&mut c)?;
                    c.expect(',')?;
                    let dest = self.resolve_block(&mut c)?;
                    ops.push(cv);
                    ops.push(dest);
                }
                Instruction::new(Opcode::Switch, void, ops)
            }
            "indirectbr" => {
                let (_, v) = self.parse_tval(&mut c)?;
                c.expect(',')?;
                c.expect('[')?;
                let mut ops = OpVec::from([v]);
                loop {
                    c.skip_ws();
                    if c.eat(']') {
                        break;
                    }
                    let b = self.resolve_block(&mut c)?;
                    ops.push(b);
                    c.eat(',');
                }
                Instruction::new(Opcode::IndirectBr, void, ops)
            }
            "unreachable" => Instruction::new(Opcode::Unreachable, void, OpVec::new()),
            "resume" => {
                let (_, v) = self.parse_tval(&mut c)?;
                Instruction::new(Opcode::Resume, void, [v])
            }
            "invoke" | "callbr" | "call" => {
                let op = match word {
                    "invoke" => Opcode::Invoke,
                    "callbr" => Opcode::CallBr,
                    _ => Opcode::Call,
                };
                let ret_ty = c.parse_type(&mut self.module.types)?;
                c.skip_ws();
                let callee = if c.rest().starts_with("asm") {
                    c.eat_word("asm");
                    c.skip_ws();
                    c.expect('"')?;
                    let text = c.take_until('"')?;
                    c.expect(',')?;
                    c.skip_ws();
                    c.expect('"')?;
                    let constraints = c.take_until('"')?;
                    if !c.eat_word("hwlevel") {
                        return Err(self.err("expected `hwlevel`"));
                    }
                    let lvl = c.parse_int()? as u8;
                    let fnty = self.module.types.func(ret_ty, vec![]);
                    let aid = self.module.add_asm(InlineAsm {
                        text: text.to_string(),
                        constraints: constraints.to_string(),
                        ty: fnty,
                        hw_level: lvl,
                    });
                    ValueRef::InlineAsm(aid)
                } else if c.peek_char() == Some('@') {
                    let n = c.parse_global_name()?;
                    self.resolve_global(n)?
                } else {
                    let n = c.parse_local_name()?;
                    self.resolve_local(n)?
                };
                c.expect('(')?;
                let mut ops = OpVec::from([callee]);
                if !c.eat(')') {
                    loop {
                        let (_, v) = self.parse_tval(&mut c)?;
                        ops.push(v);
                        if c.eat(')') {
                            break;
                        }
                        c.expect(',')?;
                    }
                }
                let n = ops.len() as u32 - 1;
                let mut attrs = InstAttrs {
                    num_args: n,
                    tail_call: tail,
                    ..InstAttrs::default()
                };
                match op {
                    Opcode::Invoke => {
                        if !c.eat_word("to") {
                            return Err(self.err("expected `to`"));
                        }
                        let normal = self.resolve_block(&mut c)?;
                        if !c.eat_word("unwind") {
                            return Err(self.err("expected `unwind`"));
                        }
                        let unwind = self.resolve_block(&mut c)?;
                        ops.push(normal);
                        ops.push(unwind);
                    }
                    Opcode::CallBr => {
                        if !c.eat_word("to") {
                            return Err(self.err("expected `to`"));
                        }
                        let ft = self.resolve_block(&mut c)?;
                        ops.push(ft);
                        c.expect('[')?;
                        loop {
                            c.skip_ws();
                            if c.eat(']') {
                                break;
                            }
                            let b = self.resolve_block(&mut c)?;
                            ops.push(b);
                            c.eat(',');
                        }
                    }
                    _ => {}
                }
                attrs.callee_ty = None;
                let mut i = Instruction::new(op, ret_ty, ops);
                i.attrs = attrs;
                i
            }
            "fneg" => {
                let (ty, v) = self.parse_tval(&mut c)?;
                Instruction::new(Opcode::FNeg, ty, [v])
            }
            "add" | "sub" | "mul" | "udiv" | "sdiv" | "urem" | "srem" | "shl" | "lshr" | "ashr"
            | "and" | "or" | "xor" | "fadd" | "fsub" | "fmul" | "fdiv" | "frem" => {
                let op: Opcode = word.parse().unwrap();
                let mut attrs = InstAttrs::default();
                loop {
                    if c.eat_word("nuw") {
                        attrs.nuw = true;
                    } else if c.eat_word("nsw") {
                        attrs.nsw = true;
                    } else if c.eat_word("exact") {
                        attrs.exact = true;
                    } else {
                        break;
                    }
                }
                let (ty, a) = self.parse_tval(&mut c)?;
                c.expect(',')?;
                let b = self.parse_value(&mut c, ty)?;
                let mut i = Instruction::new(op, ty, [a, b]);
                i.attrs = attrs;
                i
            }
            "alloca" => {
                let ty = c.parse_type(&mut self.module.types)?;
                let ptr = self.module.types.ptr(ty);
                let mut ops = OpVec::new();
                if c.eat(',') {
                    let (_, n) = self.parse_tval(&mut c)?;
                    ops.push(n);
                }
                let mut i = Instruction::new(Opcode::Alloca, ptr, ops);
                i.attrs.alloc_ty = Some(ty);
                i
            }
            "load" => {
                let volatile = c.eat_word("volatile");
                let first = c.parse_type(&mut self.module.types)?;
                let (result_ty, ptr) = if self.module.version.explicit_load_type_in_text() {
                    c.expect(',')?;
                    let pty = c.parse_type(&mut self.module.types)?;
                    let p = self.parse_value(&mut c, pty)?;
                    (first, p)
                } else {
                    // Old style: `first` is the pointer type.
                    let p = self.parse_value(&mut c, first)?;
                    let pointee = self
                        .module
                        .types
                        .pointee(first)
                        .ok_or_else(|| self.err("old-style load needs a pointer type"))?;
                    (pointee, p)
                };
                let mut i = Instruction::new(Opcode::Load, result_ty, [ptr]);
                i.attrs.volatile = volatile;
                i.attrs.gep_source_ty = Some(result_ty);
                i
            }
            "store" => {
                let volatile = c.eat_word("volatile");
                let (_, v) = self.parse_tval(&mut c)?;
                c.expect(',')?;
                let (_, p) = self.parse_tval(&mut c)?;
                let mut i = Instruction::new(Opcode::Store, void, [v, p]);
                i.attrs.volatile = volatile;
                i
            }
            "getelementptr" => {
                let inbounds = c.eat_word("inbounds");
                let (src_ty, base) = if self.module.version.explicit_load_type_in_text() {
                    let src = c.parse_type(&mut self.module.types)?;
                    c.expect(',')?;
                    let pty = c.parse_type(&mut self.module.types)?;
                    let b = self.parse_value(&mut c, pty)?;
                    (src, b)
                } else {
                    let pty = c.parse_type(&mut self.module.types)?;
                    let b = self.parse_value(&mut c, pty)?;
                    let src = self
                        .module
                        .types
                        .pointee(pty)
                        .ok_or_else(|| self.err("old-style gep needs a pointer type"))?;
                    (src, b)
                };
                let mut ops = OpVec::from([base]);
                while c.eat(',') {
                    let (ity, v) = self.parse_tval(&mut c)?;
                    let _ = ity;
                    ops.push(v);
                }
                let result = compute_gep_result(&mut self.module.types, src_ty, &ops[1..])
                    .ok_or_else(|| self.err("cannot compute gep result type"))?;
                let mut i = Instruction::new(Opcode::GetElementPtr, result, ops);
                i.attrs.gep_source_ty = Some(src_ty);
                i.attrs.inbounds = inbounds;
                i
            }
            "fence" => {
                let _ = c.parse_word();
                let mut i = Instruction::new(Opcode::Fence, void, OpVec::new());
                i.attrs.ordering = Some(AtomicOrdering::SeqCst);
                i
            }
            "cmpxchg" => {
                let (_, p) = self.parse_tval(&mut c)?;
                c.expect(',')?;
                let (vty, e) = self.parse_tval(&mut c)?;
                c.expect(',')?;
                let (_, n) = self.parse_tval(&mut c)?;
                let i1 = self.module.types.i1();
                let rty = self.module.types.struct_(vec![vty, i1]);
                let mut i = Instruction::new(Opcode::CmpXchg, rty, [p, e, n]);
                i.attrs.ordering = Some(AtomicOrdering::SeqCst);
                i
            }
            "atomicrmw" => {
                let opw = c.parse_word()?;
                let rmw: RmwOp = opw
                    .parse()
                    .map_err(|()| self.err(format!("unknown rmw op `{opw}`")))?;
                let (_, p) = self.parse_tval(&mut c)?;
                c.expect(',')?;
                let (vty, v) = self.parse_tval(&mut c)?;
                let mut i = Instruction::new(Opcode::AtomicRmw, vty, [p, v]);
                i.attrs.rmw_op = Some(rmw);
                i.attrs.ordering = Some(AtomicOrdering::SeqCst);
                i
            }
            "trunc" | "zext" | "sext" | "fptrunc" | "fpext" | "fptoui" | "fptosi" | "uitofp"
            | "sitofp" | "ptrtoint" | "inttoptr" | "bitcast" | "addrspacecast" => {
                let op: Opcode = word.parse().unwrap();
                let (_, v) = self.parse_tval(&mut c)?;
                if !c.eat_word("to") {
                    return Err(self.err("expected `to`"));
                }
                let to = c.parse_type(&mut self.module.types)?;
                Instruction::new(op, to, [v])
            }
            "icmp" => {
                let pw = c.parse_word()?;
                let pred: IntPredicate = pw
                    .parse()
                    .map_err(|()| self.err(format!("unknown predicate `{pw}`")))?;
                let (ty, a) = self.parse_tval(&mut c)?;
                c.expect(',')?;
                let b = self.parse_value(&mut c, ty)?;
                let rty = self.icmp_result_ty(ty);
                let mut i = Instruction::new(Opcode::ICmp, rty, [a, b]);
                i.attrs.int_pred = Some(pred);
                i
            }
            "fcmp" => {
                let pw = c.parse_word()?;
                let pred: FloatPredicate = pw
                    .parse()
                    .map_err(|()| self.err(format!("unknown predicate `{pw}`")))?;
                let (ty, a) = self.parse_tval(&mut c)?;
                c.expect(',')?;
                let b = self.parse_value(&mut c, ty)?;
                let rty = self.icmp_result_ty(ty);
                let mut i = Instruction::new(Opcode::FCmp, rty, [a, b]);
                i.attrs.float_pred = Some(pred);
                i
            }
            "phi" => {
                let ty = c.parse_type(&mut self.module.types)?;
                let mut ops = OpVec::new();
                loop {
                    c.skip_ws();
                    if !c.eat('[') {
                        break;
                    }
                    let v = self.parse_value(&mut c, ty)?;
                    c.expect(',')?;
                    c.skip_ws();
                    let bl = c.parse_local_name()?;
                    let b = self
                        .block_names
                        .get(bl)
                        .ok_or_else(|| self.err(format!("unknown block `%{bl}`")))?;
                    c.expect(']')?;
                    ops.push(v);
                    ops.push(ValueRef::Block(*b));
                    if !c.eat(',') {
                        break;
                    }
                }
                Instruction::new(Opcode::Phi, ty, ops)
            }
            "select" => {
                let (_, cond) = self.parse_tval(&mut c)?;
                c.expect(',')?;
                let (ty, t) = self.parse_tval(&mut c)?;
                c.expect(',')?;
                let (_, f) = self.parse_tval(&mut c)?;
                Instruction::new(Opcode::Select, ty, [cond, t, f])
            }
            "va_arg" => {
                let (_, v) = self.parse_tval(&mut c)?;
                c.expect(',')?;
                let ty = c.parse_type(&mut self.module.types)?;
                Instruction::new(Opcode::VAArg, ty, [v])
            }
            "extractelement" => {
                let (vty, v) = self.parse_tval(&mut c)?;
                c.expect(',')?;
                let (_, i) = self.parse_tval(&mut c)?;
                let ety = match self.module.types.get(vty) {
                    Type::Vector { elem, .. } => *elem,
                    _ => vty,
                };
                Instruction::new(Opcode::ExtractElement, ety, [v, i])
            }
            "insertelement" => {
                let (vty, v) = self.parse_tval(&mut c)?;
                c.expect(',')?;
                let (_, e) = self.parse_tval(&mut c)?;
                c.expect(',')?;
                let (_, i) = self.parse_tval(&mut c)?;
                Instruction::new(Opcode::InsertElement, vty, [v, e, i])
            }
            "shufflevector" => {
                let (vty, a) = self.parse_tval(&mut c)?;
                c.expect(',')?;
                let (_, b) = self.parse_tval(&mut c)?;
                c.expect(',')?;
                if !c.eat_word("mask") {
                    return Err(self.err("expected `mask`"));
                }
                c.expect('<')?;
                let mut mask = Vec::new();
                loop {
                    c.skip_ws();
                    if c.eat('>') {
                        break;
                    }
                    mask.push(c.parse_int()? as u64);
                    c.eat(',');
                }
                let ety = match self.module.types.get(vty) {
                    Type::Vector { elem, .. } => *elem,
                    _ => vty,
                };
                let rty = self.module.types.vector(ety, mask.len() as u32);
                let mut i = Instruction::new(Opcode::ShuffleVector, rty, [a, b]);
                i.attrs.indices = mask;
                i
            }
            "extractvalue" => {
                let (_, agg) = self.parse_tval(&mut c)?;
                c.expect(',')?;
                let mut idx = Vec::new();
                loop {
                    idx.push(c.parse_int()? as u64);
                    if !c.eat(',') {
                        break;
                    }
                }
                c.expect(':')?;
                let rty = c.parse_type(&mut self.module.types)?;
                let mut i = Instruction::new(Opcode::ExtractValue, rty, [agg]);
                i.attrs.indices = idx;
                i
            }
            "insertvalue" => {
                let (aty, agg) = self.parse_tval(&mut c)?;
                c.expect(',')?;
                let (_, v) = self.parse_tval(&mut c)?;
                c.expect(',')?;
                let mut idx = Vec::new();
                loop {
                    idx.push(c.parse_int()? as u64);
                    if !c.eat(',') {
                        break;
                    }
                }
                let mut i = Instruction::new(Opcode::InsertValue, aty, [agg, v]);
                i.attrs.indices = idx;
                i
            }
            "landingpad" => {
                let ty = c.parse_type(&mut self.module.types)?;
                let cleanup = c.eat_word("cleanup");
                let mut i = Instruction::new(Opcode::LandingPad, ty, OpVec::new());
                i.attrs.is_cleanup = cleanup;
                i
            }
            "freeze" => {
                let (ty, v) = self.parse_tval(&mut c)?;
                Instruction::new(Opcode::Freeze, ty, [v])
            }
            "catchswitch" => {
                c.expect('[')?;
                let mut ops = OpVec::new();
                loop {
                    c.skip_ws();
                    if c.eat(']') {
                        break;
                    }
                    ops.push(self.resolve_block(&mut c)?);
                    c.eat(',');
                }
                Instruction::new(Opcode::CatchSwitch, void, ops)
            }
            "catchpad" => {
                let tok = self.module.types.token();
                Instruction::new(Opcode::CatchPad, tok, OpVec::new())
            }
            "catchret" => {
                let b = self.resolve_block(&mut c)?;
                Instruction::new(Opcode::CatchRet, void, [b])
            }
            "cleanuppad" => {
                let tok = self.module.types.token();
                Instruction::new(Opcode::CleanupPad, tok, OpVec::new())
            }
            "cleanupret" => {
                let b = self.resolve_block(&mut c)?;
                Instruction::new(Opcode::CleanupRet, void, [b])
            }
            other => return Err(self.err(format!("unknown instruction `{other}`"))),
        };
        let _ = self.fid;
        inst.attrs.tail_call |= tail;
        Ok(inst)
    }

    fn icmp_result_ty(&mut self, operand_ty: TypeId) -> TypeId {
        match self.module.types.get(operand_ty).clone() {
            Type::Vector { len, .. } => {
                let i1 = self.module.types.i1();
                self.module.types.vector(i1, len)
            }
            _ => self.module.types.i1(),
        }
    }
}

fn compute_gep_result(
    types: &mut crate::types::TypeTable,
    src: TypeId,
    indices: &[ValueRef],
) -> Option<TypeId> {
    let mut cur = src;
    for idx in indices.iter().skip(1) {
        cur = match types.get(cur).clone() {
            Type::Array { elem, .. } | Type::Vector { elem, .. } => elem,
            Type::Struct { fields } => {
                let i = idx.as_int()? as usize;
                *fields.get(i)?
            }
            _ => return None,
        };
    }
    Some(types.ptr(cur))
}

/// A simple single-line cursor.
struct Cursor<'a> {
    s: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn new(s: &'a str, line: usize) -> Self {
        Cursor { s, pos: 0, line }
    }

    fn err(&self, m: impl Into<String>) -> IrError {
        IrError::Parse {
            line: self.line,
            message: m.into(),
        }
    }

    fn rest(&self) -> &str {
        &self.s[self.pos..]
    }

    fn rest_short(&self) -> String {
        self.rest().chars().take(24).collect()
    }

    fn skip_ws(&mut self) {
        while self.rest().starts_with(' ') || self.rest().starts_with('\t') {
            self.pos += 1;
        }
    }

    fn peek_char(&mut self) -> Option<char> {
        self.skip_ws();
        self.rest().chars().next()
    }

    fn bump(&mut self) {
        if let Some(ch) = self.rest().chars().next() {
            self.pos += ch.len_utf8();
        }
    }

    fn eat(&mut self, ch: char) -> bool {
        self.skip_ws();
        if self.rest().starts_with(ch) {
            self.pos += ch.len_utf8();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, ch: char) -> IrResult<()> {
        if self.eat(ch) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{ch}` near `{}`", self.rest_short())))
        }
    }

    fn eat_word(&mut self, word: &str) -> bool {
        self.skip_ws();
        let r = self.rest();
        if let Some(after) = r.strip_prefix(word) {
            let boundary = after
                .chars()
                .next()
                .is_none_or(|c| !c.is_ascii_alphanumeric() && c != '_' && c != '.');
            // `...` is punctuation-only, always a boundary match.
            if boundary || word == "..." {
                self.pos += word.len();
                return true;
            }
        }
        false
    }

    fn parse_word(&mut self) -> IrResult<&'a str> {
        self.skip_ws();
        let start = self.pos;
        while let Some(ch) = self.rest().chars().next() {
            if ch.is_ascii_alphanumeric() || ch == '_' {
                self.pos += ch.len_utf8();
            } else {
                break;
            }
        }
        if self.pos == start {
            Err(self.err(format!("expected word near `{}`", self.rest_short())))
        } else {
            Ok(&self.s[start..self.pos])
        }
    }

    fn parse_local_name(&mut self) -> IrResult<&'a str> {
        self.skip_ws();
        if !self.rest().starts_with('%') {
            return Err(self.err(format!("expected `%` near `{}`", self.rest_short())));
        }
        self.pos += 1;
        let start = self.pos;
        while let Some(ch) = self.rest().chars().next() {
            if is_name_char(ch) {
                self.pos += ch.len_utf8();
            } else {
                break;
            }
        }
        Ok(&self.s[start..self.pos])
    }

    fn parse_global_name(&mut self) -> IrResult<&'a str> {
        self.skip_ws();
        if !self.rest().starts_with('@') {
            return Err(self.err(format!("expected `@` near `{}`", self.rest_short())));
        }
        self.pos += 1;
        let start = self.pos;
        while let Some(ch) = self.rest().chars().next() {
            if is_name_char(ch) {
                self.pos += ch.len_utf8();
            } else {
                break;
            }
        }
        Ok(&self.s[start..self.pos])
    }

    fn parse_int(&mut self) -> IrResult<i64> {
        self.skip_ws();
        let start = self.pos;
        if self.rest().starts_with('-') {
            self.pos += 1;
        }
        while let Some(ch) = self.rest().chars().next() {
            if ch.is_ascii_digit() {
                self.pos += 1;
            } else {
                break;
            }
        }
        self.s[start..self.pos]
            .parse()
            .map_err(|_| self.err(format!("expected integer near `{}`", self.rest_short())))
    }

    fn parse_hex(&mut self) -> IrResult<u64> {
        self.skip_ws();
        if !self.rest().starts_with("0x") {
            return Err(self.err("expected hex literal"));
        }
        self.pos += 2;
        let start = self.pos;
        while let Some(ch) = self.rest().chars().next() {
            if ch.is_ascii_hexdigit() {
                self.pos += 1;
            } else {
                break;
            }
        }
        u64::from_str_radix(&self.s[start..self.pos], 16).map_err(|_| self.err("bad hex literal"))
    }

    fn parse_string(&mut self) -> IrResult<&'a str> {
        self.expect('"')?;
        self.take_until('"')
    }

    fn take_until(&mut self, end: char) -> IrResult<&'a str> {
        let start = self.pos;
        while let Some(ch) = self.rest().chars().next() {
            if ch == end {
                let s = &self.s[start..self.pos];
                self.pos += end.len_utf8();
                return Ok(s);
            }
            self.pos += ch.len_utf8();
        }
        Err(self.err(format!("unterminated `{end}`")))
    }

    fn parse_type(&mut self, types: &mut crate::types::TypeTable) -> IrResult<TypeId> {
        self.skip_ws();
        let mut base = if self.eat('[') {
            let n = self.parse_int()? as u64;
            if !self.eat_word("x") {
                return Err(self.err("expected `x` in array type"));
            }
            let elem = self.parse_type(types)?;
            self.expect(']')?;
            types.array(elem, n)
        } else if self.eat('<') {
            let n = self.parse_int()? as u32;
            if !self.eat_word("x") {
                return Err(self.err("expected `x` in vector type"));
            }
            let elem = self.parse_type(types)?;
            self.expect('>')?;
            types.vector(elem, n)
        } else if self.eat('{') {
            let mut fields = Vec::new();
            if !self.eat('}') {
                loop {
                    fields.push(self.parse_type(types)?);
                    if self.eat('}') {
                        break;
                    }
                    self.expect(',')?;
                }
            }
            types.struct_(fields)
        } else {
            let w = self.parse_word()?;
            match w {
                "void" => types.void(),
                "float" => types.f32(),
                "double" => types.f64(),
                "label" => types.label(),
                "token" => types.token(),
                "ptr" => {
                    // Opaque pointer: nominal i8 pointee.
                    if self.eat_word("addrspace") {
                        self.expect('(')?;
                        let sp = self.parse_int()? as u32;
                        self.expect(')')?;
                        let i8t = types.i8();
                        return Ok(types.ptr_in(i8t, sp));
                    }
                    let i8t = types.i8();
                    types.ptr(i8t)
                }
                other => {
                    if let Some(bits) = other.strip_prefix('i').and_then(|b| b.parse::<u32>().ok())
                    {
                        types.int(bits)
                    } else {
                        return Err(self.err(format!("unknown type `{other}`")));
                    }
                }
            }
        };
        // Postfix function types and pointers (typed syntax): `i32 (i32)*`,
        // `i32*`, `i32 addrspace(3)*`.
        loop {
            self.skip_ws();
            if self.rest().starts_with('(') {
                self.pos += 1;
                let mut params = Vec::new();
                let mut varargs = false;
                if !self.eat(')') {
                    loop {
                        if self.eat_word("...") {
                            varargs = true;
                            self.expect(')')?;
                            break;
                        }
                        params.push(self.parse_type(types)?);
                        if self.eat(')') {
                            break;
                        }
                        self.expect(',')?;
                    }
                }
                base = if varargs {
                    types.func_varargs(base, params)
                } else {
                    types.func(base, params)
                };
                continue;
            }
            if self.rest().starts_with("addrspace") {
                self.eat_word("addrspace");
                self.expect('(')?;
                let sp = self.parse_int()? as u32;
                self.expect(')')?;
                self.expect('*')?;
                base = types.ptr_in(base, sp);
            } else if self.rest().starts_with('*') {
                self.pos += 1;
                base = types.ptr(base);
            } else {
                break;
            }
        }
        Ok(base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::interp::Machine;
    use crate::verify::verify_module;
    use crate::write::write_module;

    fn roundtrip(m: &Module) -> Module {
        let text = write_module(m);
        parse_module(&text).unwrap_or_else(|e| panic!("parse failed: {e}\n{text}"))
    }

    #[test]
    fn parses_simple_program() {
        let text = "\
; ModuleID = 'hello'
; IR version 13.0

define i32 @main() {
entry:
  %x = add i32 40, 2
  ret i32 %x
}
";
        let m = parse_module(text).unwrap();
        assert_eq!(m.version, IrVersion::V13_0);
        verify_module(&m).unwrap();
        assert_eq!(Machine::new(&m).run_main().unwrap().return_int(), Some(42));
    }

    #[test]
    fn parses_old_style_load() {
        let text = "\
; IR version 3.6

define i32 @main() {
entry:
  %p = alloca i32
  store i32 9, i32* %p
  %v = load i32* %p
  ret i32 %v
}
";
        let m = parse_module(text).unwrap();
        verify_module(&m).unwrap();
        assert_eq!(Machine::new(&m).run_main().unwrap().return_int(), Some(9));
    }

    #[test]
    fn roundtrip_preserves_execution() {
        let mut m = Module::new("rt", IrVersion::V13_0);
        let i32t = m.types.i32();
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let entry = b.add_block("entry");
        let t = b.add_block("then");
        let e2 = b.add_block("else");
        b.position_at_end(entry);
        let c = b.icmp(
            IntPredicate::Slt,
            ValueRef::const_int(i32t, 3),
            ValueRef::const_int(i32t, 5),
        );
        b.cond_br(c, t, e2);
        b.position_at_end(t);
        b.ret(Some(ValueRef::const_int(i32t, 1)));
        b.position_at_end(e2);
        b.ret(Some(ValueRef::const_int(i32t, 2)));
        let before = Machine::new(&m).run_main().unwrap().return_int();
        let m2 = roundtrip(&m);
        verify_module(&m2).unwrap();
        let after = Machine::new(&m2).run_main().unwrap().return_int();
        assert_eq!(before, after);
    }

    #[test]
    fn roundtrip_is_textually_idempotent() {
        let mut m = Module::new("idem", IrVersion::V3_6);
        let i32t = m.types.i32();
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let entry = b.add_block("entry");
        b.position_at_end(entry);
        let p = b.alloca(i32t);
        b.store(ValueRef::const_int(i32t, 1), p);
        let v = b.load(i32t, p);
        b.ret(Some(v));
        let t1 = write_module(&m);
        let m2 = parse_module(&t1).unwrap();
        let t2 = write_module(&m2);
        assert_eq!(t1, t2);
    }

    #[test]
    fn parses_globals_and_calls() {
        let text = "\
; IR version 13.0

@counter = global i32 7

declare i8* @malloc(i64 %n)

define i32 @main() {
entry:
  %v = load i32, i32* @counter
  ret i32 %v
}
";
        let m = parse_module(text).unwrap();
        assert_eq!(m.globals.len(), 1);
        assert_eq!(Machine::new(&m).run_main().unwrap().return_int(), Some(7));
    }

    #[test]
    fn parses_phi_and_branches() {
        let text = "\
; IR version 13.0

define i32 @main() {
entry:
  br label %loop
loop:
  %i = phi i32 [ 0, %entry ], [ %n, %loop ]
  %n = add i32 %i, 1
  %c = icmp slt i32 %n, 5
  br i1 %c, label %loop, label %done
done:
  ret i32 %n
}
";
        let m = parse_module(text).unwrap();
        verify_module(&m).unwrap();
        assert_eq!(Machine::new(&m).run_main().unwrap().return_int(), Some(5));
    }

    #[test]
    fn missing_version_header_is_an_error() {
        let e = parse_module("define i32 @main() {\n}\n").unwrap_err();
        assert!(e.to_string().contains("IR version"));
    }

    #[test]
    fn unknown_instruction_reports_line() {
        let text = "; IR version 13.0\n\ndefine i32 @main() {\nentry:\n  frobnicate i32 1\n}\n";
        let e = parse_module(text).unwrap_err();
        match e {
            IrError::Parse { line, .. } => assert_eq!(line, 5),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn parses_switch() {
        let text = "\
; IR version 13.0

define i32 @main() {
entry:
  switch i32 2, label %d [ i32 1, label %a  i32 2, label %b ]
a:
  ret i32 10
b:
  ret i32 20
d:
  ret i32 30
}
";
        let m = parse_module(text).unwrap();
        assert_eq!(Machine::new(&m).run_main().unwrap().return_int(), Some(20));
    }

    #[test]
    fn parses_gep_with_struct() {
        let text = "\
; IR version 13.0

define i32 @main() {
entry:
  %s = alloca { i32, i64 }
  %p = getelementptr { i32, i64 }, { i32, i64 }* %s, i64 0, i32 0
  store i32 77, i32* %p
  %v = load i32, i32* %p
  ret i32 %v
}
";
        let m = parse_module(text).unwrap();
        verify_module(&m).unwrap();
        assert_eq!(Machine::new(&m).run_main().unwrap().return_int(), Some(77));
    }
}
