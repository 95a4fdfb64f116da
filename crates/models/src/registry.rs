//! A registry of every model, for lookup by name in tools and tests.

use crate::armv8::Armv8;
use crate::cpp::Cpp;
use crate::model::Model;
use crate::power::Power;
use crate::sc::{Sc, Tsc};
use crate::x86::X86;

/// Every model in the paper: baselines and transactional extensions.
pub fn all_models() -> Vec<Box<dyn Model>> {
    vec![
        Box::new(Sc),
        Box::new(Tsc),
        Box::new(X86::base()),
        Box::new(X86::tm()),
        Box::new(Power::base()),
        Box::new(Power::tm()),
        Box::new(Armv8::base()),
        Box::new(Armv8::tm()),
        Box::new(Cpp::base()),
        Box::new(Cpp::tm()),
    ]
}

/// Look a model up by its [`Model::name`].
pub fn by_name(name: &str) -> Option<Box<dyn Model>> {
    all_models().into_iter().find(|m| m.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_unique() {
        let models = all_models();
        let mut names: Vec<_> = models.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), models.len());
    }

    #[test]
    fn lookup() {
        assert!(by_name("x86-tm").is_some());
        assert!(by_name("power").is_some());
        assert!(by_name("nope").is_none());
        assert_eq!(by_name("armv8-tm").unwrap().name(), "armv8-tm");
    }

    #[test]
    fn tm_flags() {
        for m in all_models() {
            assert_eq!(m.name().ends_with("-tm") || m.name() == "TSC", m.is_tm());
        }
    }
}
