//! Dialect-tagged module wrapper.
//!
//! The serving path needs one value type that can hold a module of either
//! dialect: [`AnyModule`] is that sum, with text sniffing ([`AnyModule::parse`]
//! keys off WIR's `;; wir` header line), dialect-generic verify/print, and
//! the [`DialectVersion`] that routing keys on.

use siro_ir::{DialectVersion, Module};

use crate::module::WirModule;
use crate::parse::{looks_like_wir, parse_module};

/// A module of either dialect.
#[derive(Debug, Clone)]
pub enum AnyModule {
    /// A Siro (register/SSA) module.
    Siro(Module),
    /// A WIR (stack-machine) module.
    Wir(WirModule),
}

impl AnyModule {
    /// Parses text of either dialect, sniffing WIR via its header comment
    /// and falling back to the Siro parser otherwise.
    pub fn parse(text: &str) -> Result<AnyModule, String> {
        if looks_like_wir(text) {
            parse_module(text)
                .map(AnyModule::Wir)
                .map_err(|e| e.to_string())
        } else {
            siro_ir::parse::parse_module(text)
                .map(AnyModule::Siro)
                .map_err(|e| e.to_string())
        }
    }

    /// The module's dialect-qualified version.
    pub fn dialect_version(&self) -> DialectVersion {
        match self {
            AnyModule::Siro(m) => DialectVersion::from(m.version),
            AnyModule::Wir(m) => DialectVersion::from(m.version),
        }
    }

    /// Renders canonical text for the module's dialect.
    pub fn print(&self) -> String {
        match self {
            AnyModule::Siro(m) => siro_ir::write::write_module(m),
            AnyModule::Wir(m) => crate::write::write_module(m),
        }
    }

    /// Verifies the module under its dialect's rules.
    pub fn verify(&self) -> Result<(), String> {
        match self {
            AnyModule::Siro(m) => siro_ir::verify::verify_module(m).map_err(|e| e.to_string()),
            AnyModule::Wir(m) => crate::validate::verify_module(m).map_err(|e| e.to_string()),
        }
    }

    /// The Siro module, if this is one.
    pub fn as_siro(&self) -> Option<&Module> {
        match self {
            AnyModule::Siro(m) => Some(m),
            AnyModule::Wir(_) => None,
        }
    }

    /// The WIR module, if this is one.
    pub fn as_wir(&self) -> Option<&WirModule> {
        match self {
            AnyModule::Siro(_) => None,
            AnyModule::Wir(m) => Some(m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::WirVersion;
    use siro_ir::Dialect;

    #[test]
    fn sniffing_separates_the_dialects() {
        let wir = crate::gen::generate_module(3, WirVersion::W2_0);
        let wir_text = crate::write::write_module(&wir);
        let any = AnyModule::parse(&wir_text).unwrap();
        assert_eq!(any.dialect_version().dialect, Dialect::Wir);
        assert_eq!(any.print(), wir_text);
        any.verify().unwrap();

        let siro_text =
            "; ModuleID = 'm'\n; IR version 13.0\n\ndefine i32 @main() {\nentry.0:\n  ret i32 7\n}\n";
        let any = AnyModule::parse(siro_text).unwrap();
        assert_eq!(any.dialect_version().dialect, Dialect::Siro);
        any.verify().unwrap();
    }
}
