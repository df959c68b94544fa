"""Unit tests for the assembler (encoding, labels, directives, errors)."""

import pytest

from repro.cpu import AssemblyError, assemble
from repro.cpu import isa
from repro.mem.layout import CODE_BASE, DATA_BASE


class TestEncoding:
    def test_mov_imm(self):
        prog = assemble("mov rax, 0x1122334455667788")
        assert prog.text[0] == isa.MOVI
        assert prog.text[1] == 0  # rax
        assert int.from_bytes(prog.text[2:10], "little") == 0x1122334455667788

    def test_mov_negative_imm(self):
        prog = assemble("mov rax, -1")
        assert int.from_bytes(prog.text[2:10], "little") == (1 << 64) - 1

    def test_char_literal(self):
        prog = assemble("mov rax, 'A'")
        assert int.from_bytes(prog.text[2:10], "little") == 65

    def test_mov_reg_reg(self):
        prog = assemble("mov rbx, rcx")
        assert list(prog.text) == [isa.MOVR, 3, 1]

    def test_load_with_disp(self):
        prog = assemble("mov rax, [rbx+16]")
        assert prog.text[0] == isa.LOAD
        assert prog.text[1] == 0
        assert prog.text[2] == 3
        assert int.from_bytes(prog.text[3:7], "little", signed=True) == 16

    def test_store_negative_disp(self):
        prog = assemble("mov [rbp-8], rax")
        assert prog.text[0] == isa.STORE
        assert int.from_bytes(prog.text[2:6], "little", signed=True) == -8

    def test_indexed_load(self):
        prog = assemble("mov rax, [rbx + rcx*8 + 4]")
        assert prog.text[0] == isa.LOADX
        assert prog.text[1:4] == bytes([0, 3, 1])
        assert prog.text[4] == 8
        assert int.from_bytes(prog.text[5:9], "little", signed=True) == 4

    def test_index_without_scale(self):
        prog = assemble("mov rax, [rbx + rcx]")
        assert prog.text[0] == isa.LOADX
        assert prog.text[4] == 1

    def test_byte_forms(self):
        prog = assemble("movb rax, [rbx]\nmovb [rbx], rax")
        assert prog.text[0] == isa.LOADB
        assert prog.text[isa.insn_length(isa.LOADB)] == isa.STOREB

    def test_alu_reg_vs_imm(self):
        prog = assemble("add rax, rbx\nadd rax, 5")
        assert prog.text[0] == isa.ADDRR
        assert prog.text[3] == isa.ADDRI

    def test_simple_ops(self):
        prog = assemble("syscall\nret\nnop\nhlt")
        assert list(prog.text) == [isa.SYSCALL, isa.RET, isa.NOP, isa.HLT]

    def test_aliases(self):
        prog = assemble("cmp rax, rbx\njz out\njnz out\nout: ret")
        assert isa.JE in prog.text
        assert isa.JNE in prog.text


class TestLabels:
    def test_forward_branch(self):
        prog = assemble("jmp target\nnop\ntarget: hlt")
        # rel32 from end of jmp (offset 5) to target (offset 6).
        rel = int.from_bytes(prog.text[1:5], "little", signed=True)
        assert rel == 1

    def test_backward_branch(self):
        prog = assemble("loop: nop\njmp loop")
        rel = int.from_bytes(prog.text[2:6], "little", signed=True)
        assert rel == -6

    def test_label_as_immediate(self):
        prog = assemble(".data\nvar: .quad 7\n.text\nmov rax, var")
        assert int.from_bytes(prog.text[2:10], "little") == DATA_BASE

    def test_entry_defaults_to_text_base(self):
        assert assemble("nop").entry == CODE_BASE

    def test_start_symbol_used_as_entry(self):
        prog = assemble("helper: ret\n_start: hlt")
        assert prog.entry == prog.symbols["_start"]
        assert prog.entry == CODE_BASE + 1

    def test_label_on_same_line_as_insn(self):
        prog = assemble("a: nop\nb: jmp a")
        assert prog.symbols["b"] == CODE_BASE + 1

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblyError, match="duplicate"):
            assemble("x: nop\nx: nop")

    def test_unknown_label_rejected(self):
        with pytest.raises(AssemblyError, match="unknown symbol"):
            assemble("jmp nowhere")

    def test_label_at_section_end(self):
        prog = assemble("nop\nend:")
        assert prog.symbols["end"] == CODE_BASE + 1


class TestDirectives:
    def test_quad(self):
        prog = assemble(".data\n.quad 1, 2, -1")
        assert len(prog.data) == 24
        assert int.from_bytes(prog.data[16:24], "little") == (1 << 64) - 1

    def test_quad_with_label_value(self):
        prog = assemble(".data\ntable: .quad table")
        assert int.from_bytes(prog.data[0:8], "little") == DATA_BASE

    def test_byte(self):
        prog = assemble(".data\n.byte 1, 2, 255")
        assert prog.data == b"\x01\x02\xff"

    def test_byte_out_of_range(self):
        with pytest.raises(AssemblyError, match="bad byte"):
            assemble(".data\n.byte 256")

    def test_zero(self):
        prog = assemble(".data\n.zero 100")
        assert prog.data == bytes(100)

    def test_ascii_and_asciz(self):
        prog = assemble('.data\n.ascii "ab"\n.asciz "cd"')
        assert prog.data == b"abcd\x00"

    def test_escape_sequences(self):
        prog = assemble('.data\n.asciz "hi\\n"')
        assert prog.data == b"hi\n\x00"

    def test_sections_interleave(self):
        prog = assemble(".data\na: .quad 1\n.text\nnop\n.data\nb: .quad 2")
        assert prog.symbols["b"] == DATA_BASE + 8

    def test_unknown_directive(self):
        with pytest.raises(AssemblyError, match="unknown directive"):
            assemble(".wat 5")


class TestComments:
    def test_semicolon_and_hash(self):
        prog = assemble("nop ; trailing\n# whole line\nnop # other\n")
        assert len(prog.text) == 2

    def test_blank_lines_skipped(self):
        assert assemble("\n\n  \n").text == b""


def movi(reg, value):
    return bytes([isa.MOVI, reg]) + value.to_bytes(8, "little")


class TestQuoting:
    """Comments start, and operands split, only outside quotes."""

    @pytest.mark.parametrize("text", ["a;b", "a#b", "a, b", "[x]", "';'"])
    def test_comment_characters_inside_a_string(self, text):
        prog = assemble(f'.data\n.asciz "{text}" ; a comment, "quoted"\n.ascii "!"')
        assert prog.data == text.encode() + b"\x00!"

    @pytest.mark.parametrize("char", [";", "#", ",", "[", "]", '"'])
    def test_char_literal_of_a_delimiter(self, char):
        prog = assemble(f"mov rax, '{char}' # {char}\nmov rbx, 1")
        assert prog.text == movi(0, ord(char)) + movi(3, 1)

    def test_escaped_quotes(self):
        prog = assemble(".data\n.asciz \"a\\\";\" ; x\n.byte '\\'', ','")
        assert prog.data == b'a";\x00\x27,'

    def test_unmatched_close_bracket_does_not_stop_splitting(self):
        with pytest.raises(AssemblyError, match=r"unknown symbol 'x\]'"):
            assemble(".data\n.quad x], 7")
        prog = assemble(".data\n.byte ']', 7, '['")
        assert prog.data == b"]\x07["


class TestLabelCase:
    """Registers are case-insensitive everywhere; labels are
    case-sensitive, inside brackets too."""

    def test_mixed_case_label_in_brackets(self):
        prog = assemble("mov rax, [rsp + MyVar]\nMyVar: hlt")
        target = CODE_BASE + isa.insn_length(isa.LOAD)
        assert prog.text == bytes([isa.LOAD, 0, 4]) + target.to_bytes(4, "little") \
            + bytes([isa.HLT])

    def test_label_case_is_not_folded_in_brackets(self):
        with pytest.raises(AssemblyError, match="line 2: unknown symbol 'MyVar'"):
            assemble("myvar: nop\nmov rax, [rsp + MyVar]")
        with pytest.raises(AssemblyError, match="line 2: unknown symbol 'MyVar'"):
            assemble("myvar: nop\nmov rsi, MyVar")

    def test_registers_fold_case_in_brackets(self):
        prog = assemble("LEA RAX, [RSP + Rcx*8 + Buf]\nmov [rBX - 8], R9\nBuf: nop")
        buf = CODE_BASE + isa.insn_length(isa.LEAX) + isa.insn_length(isa.STORE)
        assert prog.text == (
            bytes([isa.LEAX, 0, 4, 1, 8]) + buf.to_bytes(4, "little")
            + bytes([isa.STORE, 3]) + (-8 & 0xFFFFFFFF).to_bytes(4, "little")
            + bytes([9, isa.NOP]))

    def test_char_literal_case_in_brackets(self):
        prog = assemble("mov rax, [rbx + 'A']")
        assert prog.text == bytes([isa.LOAD, 0, 3]) + (65).to_bytes(4, "little")

    def test_bad_displacement_is_quoted_as_written(self):
        with pytest.raises(AssemblyError, match="line 1: bad displacement '-Rax'"):
            assemble("mov [rax - Rax], rax")


class TestErrors:
    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblyError, match="unknown mnemonic"):
            assemble("frob rax")

    def test_wrong_operand_count(self):
        with pytest.raises(AssemblyError):
            assemble("push rax, rbx")

    def test_mem_to_mem_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("mov [rax], [rbx]")

    def test_imm32_range_checked(self):
        with pytest.raises(AssemblyError, match="out of range"):
            assemble("add rax, 0x100000000")

    def test_line_number_in_error(self):
        with pytest.raises(AssemblyError, match="line 3"):
            assemble("nop\nnop\nbogus rax")

    def test_mem_needs_base(self):
        with pytest.raises(AssemblyError):
            assemble("mov rax, [8]")
