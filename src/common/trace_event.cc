#include "common/trace_event.h"

#include <cctype>
#include <cstdio>
#include <fstream>

#include "common/strutil.h"

namespace gfp {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (unsigned char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20)
                out += strprintf("\\u%04x", c);
            else
                out += static_cast<char>(c);
        }
    }
    return out;
}

namespace {

/** A JSON number without locale surprises or trailing-zero noise. */
std::string
jsonNumber(double v)
{
    if (v == static_cast<double>(static_cast<long long>(v)))
        return strprintf("%lld", static_cast<long long>(v));
    return strprintf("%.3f", v);
}

} // namespace

void
TraceLog::push(Event ev)
{
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(std::move(ev));
}

void
TraceLog::complete(const std::string &name, const std::string &cat,
                   double ts_us, double dur_us, int pid, int tid, Args args)
{
    Event ev;
    ev.name = name;
    ev.cat = cat;
    ev.ph = 'X';
    ev.ts = ts_us;
    ev.dur = dur_us;
    ev.pid = pid;
    ev.tid = tid;
    for (auto &[k, v] : args)
        ev.args.emplace_back(k, "\"" + jsonEscape(v) + "\"");
    push(std::move(ev));
}

void
TraceLog::instant(const std::string &name, const std::string &cat,
                  double ts_us, int pid, int tid, Args args)
{
    Event ev;
    ev.name = name;
    ev.cat = cat;
    ev.ph = 'i';
    ev.ts = ts_us;
    ev.pid = pid;
    ev.tid = tid;
    for (auto &[k, v] : args)
        ev.args.emplace_back(k, "\"" + jsonEscape(v) + "\"");
    push(std::move(ev));
}

void
TraceLog::counter(const std::string &name, double ts_us, int pid,
                  const std::vector<std::pair<std::string, double>> &series)
{
    Event ev;
    ev.name = name;
    ev.cat = "counter";
    ev.ph = 'C';
    ev.ts = ts_us;
    ev.pid = pid;
    for (const auto &[k, v] : series)
        ev.args.emplace_back(k, jsonNumber(v));
    push(std::move(ev));
}

void
TraceLog::processName(int pid, const std::string &name)
{
    Event ev;
    ev.name = "process_name";
    ev.ph = 'M';
    ev.pid = pid;
    ev.args.emplace_back("name", "\"" + jsonEscape(name) + "\"");
    push(std::move(ev));
}

void
TraceLog::threadName(int pid, int tid, const std::string &name)
{
    Event ev;
    ev.name = "thread_name";
    ev.ph = 'M';
    ev.pid = pid;
    ev.tid = tid;
    ev.args.emplace_back("name", "\"" + jsonEscape(name) + "\"");
    push(std::move(ev));
}

size_t
TraceLog::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return events_.size();
}

std::string
TraceLog::toJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string out = "{\"traceEvents\": [\n";
    for (size_t i = 0; i < events_.size(); ++i) {
        const Event &ev = events_[i];
        out += strprintf("{\"name\": \"%s\", \"ph\": \"%c\", "
                         "\"ts\": %s, \"pid\": %d, \"tid\": %d",
                         jsonEscape(ev.name).c_str(), ev.ph,
                         jsonNumber(ev.ts).c_str(), ev.pid, ev.tid);
        if (!ev.cat.empty())
            out += strprintf(", \"cat\": \"%s\"",
                             jsonEscape(ev.cat).c_str());
        if (ev.ph == 'X')
            out += strprintf(", \"dur\": %s", jsonNumber(ev.dur).c_str());
        if (ev.ph == 'i')
            out += ", \"s\": \"t\""; // instant scope: thread
        if (!ev.args.empty()) {
            out += ", \"args\": {";
            for (size_t a = 0; a < ev.args.size(); ++a) {
                if (a)
                    out += ", ";
                out += strprintf("\"%s\": %s",
                                 jsonEscape(ev.args[a].first).c_str(),
                                 ev.args[a].second.c_str());
            }
            out += "}";
        }
        out += i + 1 < events_.size() ? "},\n" : "}\n";
    }
    out += "]}\n";
    return out;
}

bool
TraceLog::writeTo(const std::string &path) const
{
    std::ofstream f(path, std::ios::binary);
    if (!f)
        return false;
    f << toJson();
    return static_cast<bool>(f);
}

// ---------------------------------------------------------------------------
// Validator: a tiny recursive-descent JSON parser that records just
// enough structure (event-object spans and their scalar fields) to
// check the trace_event contract without pulling in a JSON library.

namespace {

struct JsonCursor
{
    const std::string &s;
    size_t i = 0;
    std::string err;

    bool fail(const std::string &msg)
    {
        if (err.empty())
            err = strprintf("offset %zu: %s", i, msg.c_str());
        return false;
    }
    void ws()
    {
        while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])))
            ++i;
    }
    bool eat(char c)
    {
        ws();
        if (i < s.size() && s[i] == c) {
            ++i;
            return true;
        }
        return fail(strprintf("expected '%c'", c));
    }
    bool peek(char c)
    {
        ws();
        return i < s.size() && s[i] == c;
    }

    bool parseString(std::string *out)
    {
        ws();
        if (i >= s.size() || s[i] != '"')
            return fail("expected string");
        ++i;
        std::string val;
        while (i < s.size() && s[i] != '"') {
            if (s[i] == '\\') {
                if (i + 1 >= s.size())
                    return fail("dangling escape");
                char e = s[i + 1];
                if (e == 'u') {
                    if (i + 5 >= s.size())
                        return fail("short \\u escape");
                    i += 6;
                    val += '?';
                    continue;
                }
                if (std::string("\"\\/bfnrt").find(e) == std::string::npos)
                    return fail("bad escape");
                i += 2;
                val += e;
                continue;
            }
            val += s[i++];
        }
        if (i >= s.size())
            return fail("unterminated string");
        ++i; // closing quote
        if (out)
            *out = val;
        return true;
    }

    bool parseNumber()
    {
        ws();
        size_t start = i;
        if (i < s.size() && s[i] == '-')
            ++i;
        while (i < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[i])) ||
                s[i] == '.' || s[i] == 'e' || s[i] == 'E' || s[i] == '+' ||
                s[i] == '-'))
            ++i;
        if (i == start)
            return fail("expected number");
        return true;
    }

    /** A recorded scalar member of an event object: kind is 's'
     *  (string, value kept), 'n' (number) or 'o' (anything else). */
    struct Field
    {
        std::string key;
        char kind = 'o';
        std::string sval;
    };

    /** Parse any value; if @p fields is non-null and the value is an
     *  object, record its scalar members. */
    bool parseValue(std::vector<Field> *fields)
    {
        ws();
        if (i >= s.size())
            return fail("unexpected end");
        char c = s[i];
        if (c == '"')
            return parseString(nullptr);
        if (c == '{')
            return parseObject(fields);
        if (c == '[')
            return parseArray(nullptr);
        if (c == 't')
            return literal("true");
        if (c == 'f')
            return literal("false");
        if (c == 'n')
            return literal("null");
        return parseNumber();
    }

    bool literal(const std::string &lit)
    {
        if (s.compare(i, lit.size(), lit) != 0)
            return fail("bad literal");
        i += lit.size();
        return true;
    }

    bool parseObject(std::vector<Field> *fields)
    {
        if (!eat('{'))
            return false;
        if (peek('}'))
            return eat('}');
        for (;;) {
            Field fld;
            if (!parseString(&fld.key))
                return false;
            if (!eat(':'))
                return false;
            ws();
            if (i < s.size()) {
                if (s[i] == '"')
                    fld.kind = 's';
                else if (s[i] == '-' ||
                         std::isdigit(static_cast<unsigned char>(s[i])))
                    fld.kind = 'n';
            }
            if (fld.kind == 's') {
                if (!parseString(&fld.sval))
                    return false;
            } else if (!parseValue(nullptr)) {
                return false;
            }
            if (fields)
                fields->push_back(std::move(fld));
            if (peek(',')) {
                eat(',');
                continue;
            }
            return eat('}');
        }
    }

    /** Parse an array; if @p elems is non-null each element must be an
     *  object, and its scalar fields are appended per element. */
    bool
    parseArray(std::vector<std::vector<Field>> *elems)
    {
        if (!eat('['))
            return false;
        if (peek(']'))
            return eat(']');
        for (;;) {
            if (elems) {
                std::vector<Field> fields;
                ws();
                if (i >= s.size() || s[i] != '{')
                    return fail("trace event must be an object");
                if (!parseObject(&fields))
                    return false;
                elems->push_back(std::move(fields));
            } else if (!parseValue(nullptr)) {
                return false;
            }
            if (peek(',')) {
                eat(',');
                continue;
            }
            return eat(']');
        }
    }
};

const JsonCursor::Field *
findField(const std::vector<JsonCursor::Field> &fields,
          const std::string &key)
{
    for (const auto &f : fields)
        if (f.key == key)
            return &f;
    return nullptr;
}

} // namespace

bool
validateTraceEventJson(const std::string &json, std::string *error)
{
    auto fail = [error](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };

    JsonCursor cur{json, 0, {}};
    cur.ws();
    if (cur.i >= json.size() || json[cur.i] != '{')
        return fail("root is not an object");
    // Parse the root object by hand so we can intercept "traceEvents".
    ++cur.i;
    bool saw_events = false;
    std::vector<std::vector<JsonCursor::Field>> events;
    if (!cur.peek('}')) {
        for (;;) {
            std::string key;
            if (!cur.parseString(&key) || !cur.eat(':'))
                return fail(cur.err);
            if (key == "traceEvents") {
                saw_events = true;
                if (!cur.parseArray(&events))
                    return fail(cur.err);
            } else if (!cur.parseValue(nullptr)) {
                return fail(cur.err);
            }
            if (cur.peek(',')) {
                cur.eat(',');
                continue;
            }
            break;
        }
    }
    if (!cur.eat('}'))
        return fail(cur.err);
    cur.ws();
    if (cur.i != json.size())
        return fail("trailing data after root object");
    if (!saw_events)
        return fail("missing \"traceEvents\" array");

    for (size_t n = 0; n < events.size(); ++n) {
        const auto &ev = events[n];
        auto evfail = [&](const std::string &msg) {
            return fail(strprintf("event %zu: %s", n, msg.c_str()));
        };
        const JsonCursor::Field *name = findField(ev, "name");
        const JsonCursor::Field *ph = findField(ev, "ph");
        if (!name || name->kind != 's')
            return evfail("missing string \"name\"");
        if (!ph || ph->kind != 's' || ph->sval.size() != 1)
            return evfail("missing one-character string \"ph\"");
        const JsonCursor::Field *pid = findField(ev, "pid");
        if (!pid || pid->kind != 'n')
            return evfail("missing numeric \"pid\"");
        if (ph->sval == "M")
            continue; // metadata events carry no timing
        const JsonCursor::Field *ts = findField(ev, "ts");
        if (!ts || ts->kind != 'n')
            return evfail("missing numeric \"ts\"");
        const JsonCursor::Field *tid = findField(ev, "tid");
        if (ph->sval != "C" && (!tid || tid->kind != 'n'))
            return evfail("missing numeric \"tid\"");
        if (ph->sval == "X") {
            const JsonCursor::Field *dur = findField(ev, "dur");
            if (!dur || dur->kind != 'n')
                return evfail("\"X\" event missing numeric \"dur\"");
        }
    }
    if (error)
        error->clear();
    return true;
}

} // namespace gfp
