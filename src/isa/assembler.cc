#include "isa/assembler.h"

#include <cctype>
#include <cstdlib>
#include <optional>

#include "common/logging.h"
#include "common/strutil.h"
#include "isa/encoding.h"

namespace gfp {

uint32_t
Program::symbol(const std::string &name) const
{
    auto it = symbols.find(name);
    if (it == symbols.end())
        GFP_FATAL("undefined symbol '%s'", name.c_str());
    return it->second;
}

std::string
Program::labelAt(uint32_t addr) const
{
    for (const auto &[name, a] : symbols) {
        if (a == addr)
            return name;
    }
    return "";
}

std::string
AsmDiagnostic::render() const
{
    if (file.empty())
        return strprintf("line %d, col %d: %s", line, column,
                         message.c_str());
    return strprintf("%s: line %d, col %d: %s", file.c_str(), line, column,
                     message.c_str());
}

namespace {

struct Statement
{
    int line = 0;
    int col = 1;                     // 1-based column of the mnemonic
    std::string mnemonic;            // lower-cased, empty for pure directive
    std::vector<std::string> operands;
    std::vector<int> operand_cols;   // 1-based column of each operand
    bool in_data = false;
    uint32_t address = 0;            // assigned in pass 1
    unsigned size_bytes = 0;
};

class AsmContext
{
  public:
    AsmContext(const std::string &source, AsmDiagnostic *diag)
        : source_(source), diag_(diag)
    {}

    Program run();

  private:
    [[noreturn]] void err(int line, int col, const std::string &msg) const
    {
        if (diag_)
            *diag_ = AsmDiagnostic{line, col, msg, {}};
        GFP_FATAL("assembly error, line %d, col %d: %s", line, col,
                  msg.c_str());
    }

    /** Column of operand @p i of @p st (mnemonic column as fallback). */
    int opCol(const Statement &st, size_t i) const
    {
        return i < st.operand_cols.size() ? st.operand_cols[i] : st.col;
    }

    /**
     * Split an operand list on commas that are outside brackets.
     * @p base_col is the 1-based column of @p s in the source line;
     * each operand's own column lands in @p cols.
     */
    void splitOperands(const std::string &s, int base_col,
                       std::vector<std::string> &out,
                       std::vector<int> &cols) const;

    std::optional<unsigned> parseRegOpt(const std::string &tok) const;
    unsigned parseReg(int line, int col, const std::string &tok) const;
    int64_t parseNumber(int line, int col, const std::string &tok) const;
    /** "#123", "#0x1f", "#-4" -> value. */
    int64_t parseImm(int line, int col, const std::string &tok) const;
    /** Number or label address (pass 2 only). */
    int64_t parseValueOrLabel(int line, int col,
                              const std::string &tok) const;

    unsigned sizeOf(const Statement &st) const;
    void emit(const Statement &st, std::vector<uint32_t> &code) const;
    void emitData(const Statement &st, std::vector<uint8_t> &data) const;

    void parse();
    void layout();

    const std::string &source_;
    AsmDiagnostic *diag_;
    std::vector<Statement> stmts_;
    std::map<std::string, uint32_t> symbols_;
    uint32_t text_bytes_ = 0;
    uint32_t data_base_ = 0;
    uint32_t data_bytes_ = 0;
};

void
AsmContext::splitOperands(const std::string &s, int base_col,
                          std::vector<std::string> &out,
                          std::vector<int> &cols) const
{
    std::string cur;
    size_t cur_start = 0;
    bool in_token = false;
    int depth = 0;
    auto flush = [&](size_t) {
        std::string t = trim(cur);
        if (!t.empty()) {
            // Column of the first non-blank character of the token.
            size_t lead = cur.find_first_not_of(" \t");
            out.push_back(t);
            cols.push_back(base_col + static_cast<int>(cur_start + lead));
        }
        cur.clear();
        in_token = false;
    };
    for (size_t i = 0; i < s.size(); ++i) {
        char c = s[i];
        if (c == '[')
            ++depth;
        else if (c == ']')
            --depth;
        if (c == ',' && depth == 0) {
            flush(i);
        } else {
            if (!in_token) {
                cur_start = i;
                in_token = true;
            }
            cur.push_back(c);
        }
    }
    flush(s.size());
}

std::optional<unsigned>
AsmContext::parseRegOpt(const std::string &tok) const
{
    std::string t = toLower(tok);
    if (t == "sp")
        return kRegSp;
    if (t == "lr")
        return kRegLr;
    if (t.size() >= 2 && t[0] == 'r') {
        char *end = nullptr;
        long v = std::strtol(t.c_str() + 1, &end, 10);
        if (end && *end == '\0' && v >= 0 && v < int(kNumRegs))
            return static_cast<unsigned>(v);
    }
    return std::nullopt;
}

unsigned
AsmContext::parseReg(int line, int col, const std::string &tok) const
{
    auto r = parseRegOpt(tok);
    if (!r)
        err(line, col, "expected register, got '" + tok + "'");
    return *r;
}

int64_t
AsmContext::parseNumber(int line, int col, const std::string &tok) const
{
    char *end = nullptr;
    long long v = std::strtoll(tok.c_str(), &end, 0);
    if (!end || *end != '\0' || tok.empty())
        err(line, col, "expected number, got '" + tok + "'");
    return v;
}

int64_t
AsmContext::parseImm(int line, int col, const std::string &tok) const
{
    if (tok.empty() || tok[0] != '#')
        err(line, col, "expected '#imm', got '" + tok + "'");
    return parseNumber(line, col, tok.substr(1));
}

int64_t
AsmContext::parseValueOrLabel(int line, int col,
                              const std::string &tok) const
{
    if (!tok.empty() && tok[0] == '#')
        return parseNumber(line, col, tok.substr(1));
    if (!tok.empty() &&
        (std::isdigit(static_cast<unsigned char>(tok[0])) || tok[0] == '-')) {
        return parseNumber(line, col, tok);
    }
    auto it = symbols_.find(tok);
    if (it == symbols_.end())
        err(line, col, "undefined label '" + tok + "'");
    return it->second;
}

void
AsmContext::parse()
{
    bool in_data = false;
    int line_no = 0;
    for (const std::string &raw : split(source_, '\n', true)) {
        ++line_no;
        std::string line = raw;
        // Strip comments (truncation keeps column offsets intact).
        for (size_t i = 0; i + 1 <= line.size(); ++i) {
            if (line[i] == ';' ||
                (line[i] == '/' && i + 1 < line.size() && line[i+1] == '/')) {
                line.resize(i);
                break;
            }
        }

        // Peel off leading labels, tracking the scan position so every
        // statement knows its 1-based source column.
        size_t pos = line.find_first_not_of(" \t");
        while (pos != std::string::npos) {
            size_t colon = line.find(':', pos);
            if (colon == std::string::npos)
                break;
            std::string label = trim(line.substr(pos, colon - pos));
            // Reject "label:" with spaces in the name -> actually an error.
            if (label.empty() ||
                label.find_first_of(" \t[]#,") != std::string::npos) {
                err(line_no, static_cast<int>(pos) + 1,
                    "bad label '" + label + "'");
            }
            Statement st;
            st.line = line_no;
            st.col = static_cast<int>(pos) + 1;
            st.mnemonic = ":" + label; // marker for a label definition
            st.in_data = in_data;
            stmts_.push_back(st);
            pos = line.find_first_not_of(" \t", colon + 1);
        }
        if (pos == std::string::npos)
            continue;

        // Directive or instruction.
        size_t sp = line.find_first_of(" \t", pos);
        std::string mnemonic = toLower(
            line.substr(pos, sp == std::string::npos ? std::string::npos
                                                     : sp - pos));
        size_t rest_pos =
            sp == std::string::npos ? line.size()
                                    : line.find_first_not_of(" \t", sp);
        if (rest_pos == std::string::npos)
            rest_pos = line.size();
        std::string rest = trim(line.substr(rest_pos));

        if (mnemonic == ".text") {
            in_data = false;
            continue;
        }
        if (mnemonic == ".data") {
            in_data = true;
            continue;
        }

        Statement st;
        st.line = line_no;
        st.col = static_cast<int>(pos) + 1;
        st.mnemonic = mnemonic;
        splitOperands(rest, static_cast<int>(rest_pos) + 1, st.operands,
                      st.operand_cols);
        st.in_data = in_data;
        if (startsWith(mnemonic, ".") && !in_data)
            err(line_no, st.col,
                "data directive '" + mnemonic + "' in .text");
        if (!startsWith(mnemonic, ".") && in_data)
            err(line_no, st.col,
                "instruction '" + mnemonic + "' in .data");
        stmts_.push_back(st);
    }
}

unsigned
AsmContext::sizeOf(const Statement &st) const
{
    const std::string &m = st.mnemonic;
    if (m[0] == ':')
        return 0;
    if (st.in_data) {
        if (m == ".byte")
            return st.operands.size();
        if (m == ".half")
            return 2 * st.operands.size();
        if (m == ".word")
            return 4 * st.operands.size();
        if (m == ".space") {
            if (st.operands.size() != 1)
                err(st.line, st.col, ".space takes one operand");
            int64_t n = parseNumber(st.line, opCol(st, 0), st.operands[0]);
            if (n < 0)
                err(st.line, opCol(st, 0),
                    ".space size must be non-negative");
            return static_cast<unsigned>(n);
        }
        if (m == ".align")
            return 0; // handled by layout()
        err(st.line, st.col, "unknown directive '" + m + "'");
    }
    // Pseudo instructions with deterministic sizes.
    if (m == "la")
        return 8;
    if (m == "li") {
        if (st.operands.size() != 2)
            err(st.line, st.col, "li takes 'rd, #imm'");
        int64_t v = parseImm(st.line, opCol(st, 1), st.operands[1]);
        uint32_t u = static_cast<uint32_t>(v);
        return (u <= 0xffff) ? 4 : 8;
    }
    return 4;
}

void
AsmContext::layout()
{
    // Sizing pass: walk text statements first, then data statements, and
    // pin label addresses.
    uint32_t text_off = 0;
    for (Statement &st : stmts_) {
        if (st.in_data)
            continue;
        if (st.mnemonic[0] == ':') {
            symbols_[st.mnemonic.substr(1)] = text_off;
            st.address = text_off;
            continue;
        }
        st.address = text_off;
        st.size_bytes = sizeOf(st);
        text_off += st.size_bytes;
    }
    text_bytes_ = text_off;
    data_base_ = (text_bytes_ + 7) & ~7u; // 8-byte align the data section

    uint32_t data_off = 0;
    for (Statement &st : stmts_) {
        if (!st.in_data)
            continue;
        if (st.mnemonic[0] == ':') {
            symbols_[st.mnemonic.substr(1)] = data_base_ + data_off;
            st.address = data_base_ + data_off;
            continue;
        }
        if (st.mnemonic == ".align") {
            if (st.operands.size() != 1)
                err(st.line, st.col, ".align takes one operand");
            int64_t a = parseNumber(st.line, opCol(st, 0), st.operands[0]);
            if (a <= 0 || (a & (a - 1)))
                err(st.line, opCol(st, 0),
                    ".align operand must be a power of two");
            uint32_t abs = data_base_ + data_off;
            uint32_t pad =
                (static_cast<uint32_t>(a) - (abs % a)) % static_cast<uint32_t>(a);
            st.size_bytes = pad;
            st.address = abs;
            data_off += pad;
            continue;
        }
        st.address = data_base_ + data_off;
        st.size_bytes = sizeOf(st);
        data_off += st.size_bytes;
    }
    data_bytes_ = data_off;
}

void
AsmContext::emitData(const Statement &st, std::vector<uint8_t> &data) const
{
    const std::string &m = st.mnemonic;
    auto push = [&](uint64_t v, unsigned bytes) {
        for (unsigned i = 0; i < bytes; ++i)
            data.push_back(static_cast<uint8_t>(v >> (8 * i)));
    };
    if (m == ".byte") {
        for (size_t i = 0; i < st.operands.size(); ++i) {
            const auto &op = st.operands[i];
            int64_t v = parseValueOrLabel(st.line, opCol(st, i), op);
            if (v < -128 || v > 255)
                err(st.line, opCol(st, i),
                    ".byte value out of range: " + op);
            push(static_cast<uint64_t>(v), 1);
        }
    } else if (m == ".half") {
        for (size_t i = 0; i < st.operands.size(); ++i) {
            const auto &op = st.operands[i];
            int64_t v = parseValueOrLabel(st.line, opCol(st, i), op);
            if (v < -32768 || v > 65535)
                err(st.line, opCol(st, i),
                    ".half value out of range: " + op);
            push(static_cast<uint64_t>(v), 2);
        }
    } else if (m == ".word") {
        for (size_t i = 0; i < st.operands.size(); ++i) {
            int64_t v =
                parseValueOrLabel(st.line, opCol(st, i), st.operands[i]);
            push(static_cast<uint64_t>(v), 4);
        }
    } else if (m == ".space" || m == ".align") {
        data.insert(data.end(), st.size_bytes, 0);
    } else {
        err(st.line, st.col, "unknown directive '" + m + "'");
    }
}

void
AsmContext::emit(const Statement &st, std::vector<uint32_t> &code) const
{
    const std::string &m = st.mnemonic;
    const auto &ops = st.operands;
    auto need = [&](size_t n) {
        if (ops.size() != n) {
            err(st.line, st.col,
                strprintf("'%s' expects %zu operands, got %zu",
                          m.c_str(), n, ops.size()));
        }
    };
    // Encode, converting the encoder's field-range fatals into located
    // diagnostics: the range check fires after parsing, but the
    // statement still knows exactly where it came from.
    auto checked = [&](Instr in) {
        std::string enc_err;
        {
            ScopedFatalThrow guard;
            try {
                code.push_back(encode(in));
                return;
            } catch (const FatalError &e) {
                enc_err = e.what();
            }
        }
        err(st.line, st.col, enc_err);
    };

    // --- pseudo instructions ---
    if (m == "li" || m == "la") {
        need(2);
        unsigned rd = parseReg(st.line, opCol(st, 0), ops[0]);
        uint32_t value;
        if (m == "li") {
            value = static_cast<uint32_t>(
                parseImm(st.line, opCol(st, 1), ops[1]));
        } else {
            value = static_cast<uint32_t>(
                parseValueOrLabel(st.line, opCol(st, 1), ops[1]));
        }
        Instr lo{Op::kMovi, static_cast<uint8_t>(rd), 0, 0, 0,
                 static_cast<int32_t>(value & 0xffff)};
        checked(lo);
        if (st.size_bytes == 8) {
            Instr hi{Op::kMovt, static_cast<uint8_t>(rd), 0, 0, 0,
                     static_cast<int32_t>(value >> 16)};
            checked(hi);
        } else {
            GFP_ASSERT(value <= 0xffff);
        }
        return;
    }

    // --- memory operand forms ---
    auto isMem = [](const std::string &s) {
        return !s.empty() && s.front() == '[' && s.back() == ']';
    };
    if (m == "ldr" || m == "str" || m == "ldrb" || m == "strb" ||
        m == "ldrh" || m == "strh") {
        need(2);
        if (!isMem(ops[1]))
            err(st.line, opCol(st, 1),
                "expected memory operand, got '" + ops[1] + "'");
        unsigned rd = parseReg(st.line, opCol(st, 0), ops[0]);
        std::string inner = trim(ops[1].substr(1, ops[1].size() - 2));
        std::vector<std::string> parts;
        std::vector<int> part_cols;
        // Sub-token columns point at the memory operand as a whole.
        splitOperands(inner, opCol(st, 1), parts, part_cols);
        if (parts.empty() || parts.size() > 2)
            err(st.line, opCol(st, 1),
                "bad memory operand '" + ops[1] + "'");
        unsigned rn = parseReg(st.line, opCol(st, 1), parts[0]);

        bool reg_offset =
            parts.size() == 2 && parseRegOpt(parts[1]).has_value();
        Instr in;
        in.rd = static_cast<uint8_t>(rd);
        in.rs1 = static_cast<uint8_t>(rn);
        if (reg_offset) {
            in.rs2 = static_cast<uint8_t>(
                parseReg(st.line, opCol(st, 1), parts[1]));
            if (m == "ldr") in.op = Op::kLdrr;
            else if (m == "str") in.op = Op::kStrr;
            else if (m == "ldrb") in.op = Op::kLdrbr;
            else if (m == "strb") in.op = Op::kStrbr;
            else if (m == "ldrh") in.op = Op::kLdrhr;
            else in.op = Op::kStrhr;
        } else {
            in.imm = parts.size() == 2
                         ? static_cast<int32_t>(
                               parseImm(st.line, opCol(st, 1), parts[1]))
                         : 0;
            if (m == "ldr") in.op = Op::kLdr;
            else if (m == "str") in.op = Op::kStr;
            else if (m == "ldrb") in.op = Op::kLdrb;
            else if (m == "strb") in.op = Op::kStrb;
            else if (m == "ldrh") in.op = Op::kLdrh;
            else in.op = Op::kStrh;
        }
        checked(in);
        return;
    }

    // --- three-register ALU / GF ---
    auto rrr = [&](Op op) {
        need(3);
        Instr in{op,
                 static_cast<uint8_t>(parseReg(st.line, opCol(st, 0), ops[0])),
                 static_cast<uint8_t>(parseReg(st.line, opCol(st, 1), ops[1])),
                 static_cast<uint8_t>(parseReg(st.line, opCol(st, 2), ops[2])),
                 0, 0};
        checked(in);
    };
    // --- two-register ---
    auto rr = [&](Op op) {
        need(2);
        Instr in{op,
                 static_cast<uint8_t>(parseReg(st.line, opCol(st, 0), ops[0])),
                 static_cast<uint8_t>(parseReg(st.line, opCol(st, 1), ops[1])),
                 0, 0, 0};
        checked(in);
    };
    // --- reg, reg, #imm ---
    auto rri = [&](Op op) {
        need(3);
        Instr in{op,
                 static_cast<uint8_t>(parseReg(st.line, opCol(st, 0), ops[0])),
                 static_cast<uint8_t>(parseReg(st.line, opCol(st, 1), ops[1])),
                 0, 0,
                 static_cast<int32_t>(
                     parseImm(st.line, opCol(st, 2), ops[2]))};
        checked(in);
    };
    // --- branch to label or explicit offset ---
    auto branch = [&](Op op) {
        need(1);
        int64_t offset;
        if (!ops[0].empty() &&
            (ops[0][0] == '#' || ops[0][0] == '-' ||
             std::isdigit(static_cast<unsigned char>(ops[0][0])))) {
            offset = ops[0][0] == '#'
                         ? parseNumber(st.line, opCol(st, 0),
                                       ops[0].substr(1))
                         : parseNumber(st.line, opCol(st, 0), ops[0]);
        } else {
            auto it = symbols_.find(ops[0]);
            if (it == symbols_.end())
                err(st.line, opCol(st, 0),
                    "undefined label '" + ops[0] + "'");
            int64_t delta = int64_t{it->second} -
                            (int64_t{st.address} + 4);
            if (delta % 4 != 0)
                err(st.line, opCol(st, 0), "branch target not word aligned");
            offset = delta / 4;
        }
        Instr in{op, 0, 0, 0, 0, static_cast<int32_t>(offset)};
        checked(in);
    };

    if (m == "add") { rrr(Op::kAdd); return; }
    if (m == "sub") { rrr(Op::kSub); return; }
    if (m == "and") { rrr(Op::kAnd); return; }
    if (m == "orr") { rrr(Op::kOrr); return; }
    if (m == "eor") { rrr(Op::kEor); return; }
    if (m == "lsl") { rrr(Op::kLsl); return; }
    if (m == "lsr") { rrr(Op::kLsr); return; }
    if (m == "asr") { rrr(Op::kAsr); return; }
    if (m == "mul") { rrr(Op::kMul); return; }
    if (m == "gfmuls") { rrr(Op::kGfMuls); return; }
    if (m == "gfpows") { rrr(Op::kGfPows); return; }
    if (m == "gfadds") { rrr(Op::kGfAdds); return; }

    if (m == "mov") { rr(Op::kMov); return; }
    if (m == "gfinvs") { rr(Op::kGfInvs); return; }
    if (m == "gfsqs") { rr(Op::kGfSqs); return; }

    if (m == "cmp") {
        need(2);
        Instr in{Op::kCmp, 0,
                 static_cast<uint8_t>(parseReg(st.line, opCol(st, 0), ops[0])),
                 static_cast<uint8_t>(parseReg(st.line, opCol(st, 1), ops[1])),
                 0, 0};
        checked(in);
        return;
    }
    if (m == "cmpi") {
        need(2);
        Instr in{Op::kCmpi, 0,
                 static_cast<uint8_t>(parseReg(st.line, opCol(st, 0), ops[0])),
                 0, 0,
                 static_cast<int32_t>(
                     parseImm(st.line, opCol(st, 1), ops[1]))};
        checked(in);
        return;
    }

    if (m == "addi") { rri(Op::kAddi); return; }
    if (m == "subi") { rri(Op::kSubi); return; }
    if (m == "andi") { rri(Op::kAndi); return; }
    if (m == "orri") { rri(Op::kOrri); return; }
    if (m == "eori") { rri(Op::kEori); return; }
    if (m == "lsli") { rri(Op::kLsli); return; }
    if (m == "lsri") { rri(Op::kLsri); return; }
    if (m == "asri") { rri(Op::kAsri); return; }

    if (m == "movi" || m == "movt") {
        need(2);
        Instr in{m == "movi" ? Op::kMovi : Op::kMovt,
                 static_cast<uint8_t>(parseReg(st.line, opCol(st, 0), ops[0])),
                 0, 0, 0,
                 static_cast<int32_t>(
                     parseImm(st.line, opCol(st, 1), ops[1]))};
        checked(in);
        return;
    }

    if (m == "b") { branch(Op::kB); return; }
    if (m == "beq") { branch(Op::kBeq); return; }
    if (m == "bne") { branch(Op::kBne); return; }
    if (m == "blt") { branch(Op::kBlt); return; }
    if (m == "bge") { branch(Op::kBge); return; }
    if (m == "bgt") { branch(Op::kBgt); return; }
    if (m == "ble") { branch(Op::kBle); return; }
    if (m == "blo") { branch(Op::kBlo); return; }
    if (m == "bhs") { branch(Op::kBhs); return; }
    if (m == "bhi") { branch(Op::kBhi); return; }
    if (m == "bls") { branch(Op::kBls); return; }
    if (m == "bl") { branch(Op::kBl); return; }

    if (m == "jr") {
        need(1);
        Instr in{Op::kJr, 0,
                 static_cast<uint8_t>(parseReg(st.line, opCol(st, 0), ops[0])),
                 0, 0, 0};
        checked(in);
        return;
    }
    if (m == "ret") { need(0); checked(Instr{Op::kRet, 0, 0, 0, 0, 0}); return; }
    if (m == "nop") { need(0); checked(Instr{Op::kNop, 0, 0, 0, 0, 0}); return; }
    if (m == "halt") { need(0); checked(Instr{Op::kHalt, 0, 0, 0, 0, 0}); return; }

    if (m == "gf32mul") {
        need(4);
        Instr in{Op::kGf32Mul,
                 static_cast<uint8_t>(parseReg(st.line, opCol(st, 0), ops[0])),
                 static_cast<uint8_t>(parseReg(st.line, opCol(st, 2), ops[2])),
                 static_cast<uint8_t>(parseReg(st.line, opCol(st, 3), ops[3])),
                 static_cast<uint8_t>(parseReg(st.line, opCol(st, 1), ops[1])),
                 0};
        checked(in);
        return;
    }
    if (m == "gfcfg") {
        need(1);
        Instr in{Op::kGfCfg, 0, 0, 0, 0,
                 static_cast<int32_t>(
                     parseValueOrLabel(st.line, opCol(st, 0), ops[0]))};
        checked(in);
        return;
    }

    err(st.line, st.col, "unknown mnemonic '" + m + "'");
}

Program
AsmContext::run()
{
    parse();
    layout();

    Program prog;
    prog.symbols = symbols_;
    prog.data_base = data_base_;
    prog.code.reserve(text_bytes_ / 4);
    prog.line_of_word.reserve(text_bytes_ / 4);
    prog.data.reserve(data_bytes_);

    for (const Statement &st : stmts_) {
        if (st.mnemonic[0] == ':')
            continue;
        if (st.in_data) {
            emitData(st, prog.data);
        } else {
            size_t before = prog.code.size();
            emit(st, prog.code);
            GFP_ASSERT((prog.code.size() - before) * 4 == st.size_bytes,
                       "size mismatch at line %d", st.line);
            prog.line_of_word.resize(prog.code.size(), st.line);
        }
    }
    GFP_ASSERT(prog.data.size() == data_bytes_);
    return prog;
}

} // anonymous namespace

Program
Assembler::assemble(const std::string &source)
{
    AsmContext ctx(source, nullptr);
    return ctx.run();
}

bool
Assembler::tryAssemble(const std::string &source, Program &out,
                       AsmDiagnostic &diag)
{
    // Every assembly diagnostic (err() in the context, plus encode()'s
    // field-range checks, which emit() re-dispatches through err()) goes
    // through GFP_FATAL, so a scoped throwing handler turns them all
    // into a reported error.
    ScopedFatalThrow guard;
    try {
        AsmContext ctx(source, &diag);
        out = ctx.run();
        return true;
    } catch (const FatalError &e) {
        if (diag.message.empty())
            diag.message = e.what();
        return false;
    }
}

bool
Assembler::tryAssembleFile(const std::string &source,
                           const std::string &file, Program &out,
                           AsmDiagnostic &diag)
{
    // err() overwrites the whole diagnostic, so the path is stamped
    // after the fact rather than pre-seeded.
    const bool ok = tryAssemble(source, out, diag);
    if (!ok)
        diag.file = file;
    return ok;
}

bool
Assembler::tryAssemble(const std::string &source, Program &out,
                       std::string &error)
{
    AsmDiagnostic diag;
    if (tryAssemble(source, out, diag))
        return true;
    error = "assembly error, " + diag.render();
    return false;
}

} // namespace gfp
