//! NVMe command and completion encoding.
//!
//! A real NVMe command is a 64-byte submission-queue entry; the paper's
//! NVMe host controller generates exactly one such entry per page miss
//! (a 4 KiB read whose single data pointer fits PRP1, so no PRP list is
//! needed — §III-C/§V). We model the fields the data path actually uses
//! and provide byte-level encoding so tests can check the 64-byte wire
//! shape.

use hwdp_mem::addr::PhysAddr;

/// NVMe I/O opcodes (subset).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Opcode {
    /// 0x02 — read.
    Read,
    /// 0x01 — write.
    Write,
    /// 0x00 — flush.
    Flush,
}

impl Opcode {
    /// Wire value.
    pub const fn value(self) -> u8 {
        match self {
            Opcode::Flush => 0x00,
            Opcode::Write => 0x01,
            Opcode::Read => 0x02,
        }
    }
}

/// A submission-queue entry (the fields our data path uses).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NvmeCommand {
    /// I/O opcode.
    pub opcode: Opcode,
    /// Command identifier. The paper tags each command with the PMSHR
    /// entry index so completion can find the right miss (§III-C).
    pub cid: u16,
    /// Namespace ID (1-based, per spec).
    pub nsid: u32,
    /// PRP entry 1: host DMA target/source address.
    pub prp1: PhysAddr,
    /// Starting logical block address.
    pub slba: u64,
    /// Number of logical blocks, 0-based (0 means one block).
    pub nlb: u16,
}

impl NvmeCommand {
    /// A one-block (4 KiB) read — the only command the SMU's host
    /// controller generates.
    pub fn read4k(cid: u16, nsid: u32, slba: u64, dma: PhysAddr) -> Self {
        NvmeCommand { opcode: Opcode::Read, cid, nsid, prp1: dma, slba, nlb: 0 }
    }

    /// A one-block (4 KiB) write (used by the OS writeback path).
    pub fn write4k(cid: u16, nsid: u32, slba: u64, dma: PhysAddr) -> Self {
        NvmeCommand { opcode: Opcode::Write, cid, nsid, prp1: dma, slba, nlb: 0 }
    }

    /// Number of 4 KiB blocks this command covers.
    pub const fn blocks(&self) -> u64 {
        self.nlb as u64 + 1
    }

    /// Encodes the 64-byte submission-queue entry (simplified field
    /// placement following the NVMe 1.3 layout: CDW0 opcode/cid, CDW1
    /// nsid, DW6-7 PRP1, DW10-11 SLBA, DW12 NLB).
    pub fn encode(&self) -> [u8; 64] {
        let mut b = [0u8; 64];
        b[0] = self.opcode.value();
        b[2..4].copy_from_slice(&self.cid.to_le_bytes());
        b[4..8].copy_from_slice(&self.nsid.to_le_bytes());
        b[24..32].copy_from_slice(&self.prp1.0.to_le_bytes());
        b[40..48].copy_from_slice(&self.slba.to_le_bytes());
        b[48..50].copy_from_slice(&self.nlb.to_le_bytes());
        b
    }

    /// Decodes a 64-byte submission-queue entry.
    ///
    /// # Errors
    ///
    /// Returns `Err` with a description if the opcode byte is unknown.
    // The `expect`s convert fixed 8-byte subslices of a 64-byte array.
    #[allow(clippy::expect_used)]
    pub fn decode(b: &[u8; 64]) -> Result<Self, String> {
        let opcode = match b[0] {
            0x00 => Opcode::Flush,
            0x01 => Opcode::Write,
            0x02 => Opcode::Read,
            other => return Err(format!("unknown NVMe opcode {other:#04x}")),
        };
        Ok(NvmeCommand {
            opcode,
            cid: u16::from_le_bytes([b[2], b[3]]),
            nsid: u32::from_le_bytes([b[4], b[5], b[6], b[7]]),
            prp1: PhysAddr(u64::from_le_bytes(b[24..32].try_into().expect("8 bytes"))),
            slba: u64::from_le_bytes(b[40..48].try_into().expect("8 bytes")),
            nlb: u16::from_le_bytes([b[48], b[49]]),
        })
    }
}

/// Completion status codes (subset).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Status {
    /// Successful completion.
    Success,
    /// LBA out of range.
    LbaOutOfRange,
    /// Invalid namespace or format.
    InvalidNamespace,
    /// Unrecovered media error (read/write hit a bad block). Injected by
    /// the fault plan; hosts must retry or degrade, never assume data.
    MediaError,
}

/// A completion-queue entry (16 bytes on the wire; we keep the fields the
/// host consumes).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CompletionEntry {
    /// Command identifier being completed.
    pub cid: u16,
    /// Submission-queue head pointer after this completion.
    pub sq_head: u16,
    /// Completion status.
    pub status: Status,
    /// Phase tag: toggles each time the device wraps the CQ, letting the
    /// host (or the SMU's snooping completion unit) detect new entries
    /// without interrupts.
    pub phase: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read4k_shape() {
        let c = NvmeCommand::read4k(7, 1, 0x1234, PhysAddr(0x8000));
        assert_eq!(c.opcode, Opcode::Read);
        assert_eq!(c.blocks(), 1);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let cases = [
            NvmeCommand::read4k(0xBEEF, 3, u64::MAX >> 23, PhysAddr(0xDEAD_B000)),
            NvmeCommand::write4k(0, 1, 0, PhysAddr(0)),
            NvmeCommand { opcode: Opcode::Flush, cid: 9, nsid: 2, prp1: PhysAddr(0), slba: 0, nlb: 7 },
        ];
        for c in cases {
            let wire = c.encode();
            assert_eq!(wire.len(), 64);
            assert_eq!(NvmeCommand::decode(&wire).unwrap(), c);
        }
    }

    #[test]
    fn decode_rejects_unknown_opcode() {
        let mut wire = [0u8; 64];
        wire[0] = 0x7F;
        assert!(NvmeCommand::decode(&wire).is_err());
    }

    #[test]
    fn opcode_wire_values_match_spec() {
        assert_eq!(Opcode::Flush.value(), 0x00);
        assert_eq!(Opcode::Write.value(), 0x01);
        assert_eq!(Opcode::Read.value(), 0x02);
    }

    #[test]
    fn multi_block_count() {
        let c = NvmeCommand { opcode: Opcode::Read, cid: 1, nsid: 1, prp1: PhysAddr(0), slba: 5, nlb: 3 };
        assert_eq!(c.blocks(), 4);
    }
}
