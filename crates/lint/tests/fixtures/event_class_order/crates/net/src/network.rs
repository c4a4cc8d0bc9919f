//! Fixture: OBSERVE is not the strict maximum (TIMER ties it), INJECT
//! pops after ARRIVE instead of directly before it, and a use of an
//! undeclared class.
pub mod class {
    pub const CHAOS: u8 = 0;
    pub const ARRIVE: u8 = 1;
    pub const INJECT: u8 = 2;
    pub const TIMER: u8 = 6;
    pub const OBSERVE: u8 = 6;
}

pub fn push_all() -> (u8, u8, u8, u8, u8, u8) {
    (
        class::CHAOS,
        class::ARRIVE,
        class::INJECT,
        class::TIMER,
        class::OBSERVE,
        class::DEPART,
    )
}
