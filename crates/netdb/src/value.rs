//! Attribute values stored in the network database.

/// A value for a device or link attribute.
///
/// The source-of-truth schema is intentionally loose — Robotron-style
/// network databases store heterogeneous per-device attributes (state
/// enums, IP strings, firmware versions, counters).
#[derive(Clone, PartialEq, Debug)]
pub enum AttrValue {
    /// A string value (states, versions, addresses).
    Str(String),
    /// An integer value (speeds, counters).
    Int(i64),
    /// A boolean flag.
    Bool(bool),
}

impl AttrValue {
    /// Convenience constructor from `&str`.
    pub fn str(s: impl Into<String>) -> AttrValue {
        AttrValue::Str(s.into())
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            AttrValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            AttrValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> Self {
        AttrValue::Str(s.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::Str(s)
    }
}

impl From<i64> for AttrValue {
    fn from(i: i64) -> Self {
        AttrValue::Int(i)
    }
}

impl From<bool> for AttrValue {
    fn from(b: bool) -> Self {
        AttrValue::Bool(b)
    }
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::Str(s) => f.write_str(s),
            AttrValue::Int(i) => write!(f, "{i}"),
            AttrValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// Well-known attribute names used across the system.
///
/// These mirror the conventions in the paper's examples (`DEVICE_STATUS`,
/// `LINK_STATUS`, firmware attributes in the upgrade case study).
pub mod attrs {
    /// Device operational status (`ACTIVE`, `UNDER_MAINTENANCE`, `DRAINED`).
    pub const DEVICE_STATUS: &str = "DEVICE_STATUS";
    /// Link operational status (`UP`, `DOWN`).
    pub const LINK_STATUS: &str = "LINK_STATUS";
    /// Firmware version string.
    pub const FIRMWARE_VERSION: &str = "FIRMWARE_VERSION";
    /// Location of the firmware binary to push.
    pub const FIRMWARE_BINARY: &str = "FIRMWARE_BINARY";
    /// Configuration generation pushed to the device.
    pub const CONFIG_VERSION: &str = "CONFIG_VERSION";
    /// Device management IP address.
    pub const IP_ADDRESS: &str = "IP_ADDRESS";
    /// Temporary test IP address (allocated by `f_alloc_ip`).
    pub const TEST_IP: &str = "TEST_IP";
    /// Interface speed in Mbps.
    pub const LINK_SPEED: &str = "LINK_SPEED";
    /// Device health as recorded by monitoring (`HEALTHY`, `DEGRADED`).
    pub const HEALTH: &str = "HEALTH";
    /// Device status value: serving traffic.
    pub const STATUS_ACTIVE: &str = "ACTIVE";
    /// Device status value: flagged for maintenance.
    pub const STATUS_UNDER_MAINTENANCE: &str = "UNDER_MAINTENANCE";
    /// Device status value: drained of traffic.
    pub const STATUS_DRAINED: &str = "DRAINED";
    /// Link status value.
    pub const UP: &str = "UP";
    /// Link status value.
    pub const DOWN: &str = "DOWN";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(AttrValue::str("x").as_str(), Some("x"));
        assert_eq!(AttrValue::Int(3).as_int(), Some(3));
        assert_eq!(AttrValue::Bool(true).as_bool(), Some(true));
        assert_eq!(AttrValue::Int(3).as_str(), None);
        assert_eq!(AttrValue::str("x").as_int(), None);
    }

    #[test]
    fn conversions_and_display() {
        let v: AttrValue = "UP".into();
        assert_eq!(v.to_string(), "UP");
        let v: AttrValue = 42i64.into();
        assert_eq!(v.to_string(), "42");
        let v: AttrValue = true.into();
        assert_eq!(v.to_string(), "true");
    }
}
