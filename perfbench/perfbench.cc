// simdb repository benchmark program. perfbench/NOTES.md describes the
// workloads, the metrics and how each is computed; run.py builds this
// binary and forwards its arguments.
//
//   simdb_perfbench --workload <lookup_small|analytic_large|oltp_mixed>
//                   --seed <n> --seconds <s> --trace <0|1> --dir <work dir>
//
// The population and every statement are generated from --seed. Each
// statement's expected result is computed from the generated population
// (the oracle), and any mismatch or non-OK status is a failure. The last
// line of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}; --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/database.h"

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  int students;
  int readers;    // closed-loop reader clients
  bool writer;    // one closed-loop writer client during the timed phase;
                  // its database commits through group commit
  bool analytic;  // reader mix: analytic templates, else lookup templates
};

constexpr Workload kWorkloads[] = {
    {"lookup_small", 1000, 1, false, false},
    {"analytic_large", 30000, 1, false, true},
    {"oltp_mixed", 30000, 2, true, false},
};

// Set-ups before the timed phase, the last of which is the database the
// run measures, and as many again after it; setup_s is their fast edge
// (SetupEdge). Spreading them over the run lets the fast edge find the
// host's quiet moments, as the windows of the timed phase do.
int SetupsEachSide(const Workload& w) { return w.students <= 1000 ? 8 : 2; }

// Set-up time is taken in segments: open + DDL, the load in runs of this
// many entities (in load order), and the first durable commit.
int LoadSegmentEntities(const Workload& w) {
  return w.students <= 1000 ? 10 : 200;
}

// The commit probe that read-only workloads run after their timed phase,
// so every workload reports the write path: writer cycles (4 commits each)
// from a single client, fsync per commit, for this long.
constexpr double kProbeSeconds = 2.0;

// Rates and latency percentiles are taken per window of at least this
// length, then summarized over the windows of a run (Window).
constexpr double kWindowSeconds = 0.25;
constexpr size_t kTailSamples = 1000;

// Trace ring size for the traced run. The run harvests the ring before it
// can wrap (Harvester), so every span of the timed phase is seen.
constexpr size_t kTraceCapacity = size_t{1} << 16;

// Bytes of one WAL page-image frame: 21-byte header, one 4 KiB page, 4-byte
// CRC trailer (src/storage/wal.cc). WAL bytes beyond page frames are
// metadata: mapper snapshots, DDL baselines and commit records.
constexpr uint64_t kWalPageFrameBytes = 21 + 4096 + 4;

// Transient courses the writer cycle inserts and deletes.
constexpr int kTempCourseBase = 9000;
constexpr int kTempCourseSlots = 16;

// ---------------------------------------------------------------------------
// Population: the UNIVERSITY schema of paper §7, generated from the seed.

constexpr const char* kUniversityDdl = R"ddl(
Type degree = symbolic (BS, MBA, MS, PHD);
Type id-number = integer (1001..39999, 60001..99999);

Class Person (
  name: string[30];
  soc-sec-no: integer, unique, required;
  birthdate: date;
  spouse: person inverse is spouse;
  profession: subrole (student, instructor) mv );

Subclass Student of Person (
  student-nbr: id-number;
  advisor: instructor inverse is advisees;
  instructor-status: subrole(teaching-assistant);
  courses-enrolled: course inverse is students-enrolled mv (distinct);
  major-department: department );

Subclass Instructor of Person (
  employee-nbr: id-number unique required;
  salary: number[9,2];
  bonus: number[9,2];
  student-status: subrole(teaching-assistant);
  advisees: student inverse is advisor mv (max 10);
  courses-taught: course inverse is teachers mv (max 3, distinct);
  assigned-department: department inverse is instructors-employed );

Subclass Teaching-Assistant of Student and Instructor (
  teaching-load: integer (1..20) );

Class Course (
  course-no: integer (1..9999) unique required;
  title: string[30] required;
  credits: integer (1..15) required;
  students-enrolled: student inverse is courses-enrolled mv;
  teachers: instructor inverse is courses-taught mv (max 7);
  prerequisites: course inverse is prerequisite-of mv;
  prerequisite-of: course inverse is prerequisites mv );

Class Department (
  dept-nbr: integer(100..999) required unique;
  name: string[30] required;
  instructors-employed: instructor inverse is assigned-department mv;
  courses-offered: course mv );
)ddl";

constexpr int kPrereqChain = 8;  // course c requires c-1 unless c % 8 == 0
constexpr int kEnrollments = 3;  // distinct courses per student

struct Population {
  int students = 0, instructors = 0, courses = 0, departments = 0;
  std::vector<int> credits;          // per course, 1..8
  std::vector<int64_t> salary;       // per instructor, whole dollars
  std::vector<int> instr_dept;       // per instructor
  std::vector<int> advisor;          // per student
  std::vector<int> major;            // per student
  std::vector<std::array<int, kEnrollments>> enrolled;  // per student
  // Derived for the oracle.
  std::vector<std::vector<int>> advisees;        // per instructor
  std::vector<std::vector<int>> dept_instructors;  // per department
  std::vector<int> enroll_count;                 // per course

  uint64_t entities() const {
    return static_cast<uint64_t>(students + instructors + courses +
                                 departments);
  }
};

std::string StudentName(int i) { return "Student-" + std::to_string(i); }
std::string InstrName(int j) { return "Instructor-" + std::to_string(j); }
std::string CourseTitle(int c) { return "Course-" + std::to_string(c); }
std::string DeptName(int d) { return "Dept-" + std::to_string(d); }
int64_t StudentSsn(int i) { return 100000000 + i; }
int64_t InstrSsn(int j) { return 900000000 + j; }
int StudentNbr(int i) { return 1001 + i; }
int ModifiedStudentNbr(int i) { return 60001 + i; }
int EmployeeNbr(int j) { return 1001 + j; }

Population Generate(int students, uint64_t seed) {
  Population p;
  p.students = students;
  p.instructors = students / 10;  // exactly 10 advisees each (MAX 10)
  p.courses = std::max(50, students / 30);
  p.departments = std::max(5, students / 1000);
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 17);
  auto uniform = [&rng](int n) {
    return static_cast<int>(rng() % static_cast<uint64_t>(n));
  };
  for (int c = 0; c < p.courses; ++c) p.credits.push_back(1 + uniform(8));
  p.dept_instructors.resize(p.departments);
  for (int j = 0; j < p.instructors; ++j) {
    p.salary.push_back(30000 + 500 * uniform(120));
    p.instr_dept.push_back(j % p.departments);
    p.dept_instructors[j % p.departments].push_back(j);
  }
  std::vector<int> slots(students);
  for (int i = 0; i < students; ++i) slots[i] = i / 10;
  std::shuffle(slots.begin(), slots.end(), rng);
  p.advisees.resize(p.instructors);
  p.enroll_count.assign(p.courses, 0);
  for (int i = 0; i < students; ++i) {
    p.advisor.push_back(slots[i]);
    p.advisees[slots[i]].push_back(i);
    p.major.push_back(uniform(p.departments));
    std::array<int, kEnrollments> e{};
    for (int k = 0; k < kEnrollments; ++k) {
      int c;
      do {
        c = uniform(p.courses);
      } while (std::find(e.begin(), e.begin() + k, c) != e.begin() + k);
      e[k] = c;
      ++p.enroll_count[c];
    }
    p.enrolled.push_back(e);
  }
  return p;
}

void Check(const sim::Status& s, const char* what) {
  if (!s.ok()) Die(std::string(what) + ": " + s.ToString());
}

// Times a sequence in segments: Lap() closes one, Tick() closes one after
// every `every` ticks.
class SegmentClock {
 public:
  explicit SegmentClock(int every) : every_(every) {}
  void Tick() {
    if (++ticks_ % every_ == 0) Lap();
  }
  void Lap() {
    Clock::time_point now = Clock::now();
    laps_.push_back(std::chrono::duration<double>(now - last_).count());
    last_ = now;
  }
  const std::vector<double>& laps() const { return laps_; }

 private:
  int every_;
  int ticks_ = 0;
  Clock::time_point last_ = Clock::now();
  std::vector<double> laps_;
};

// Loads the population through the LUC mapper's public entry points,
// ticking `clock` after each entity.
void Load(const Population& p, sim::LucMapper* m, SegmentClock* clock) {
  std::vector<sim::SurrogateId> dept, course, instr;
  for (int d = 0; d < p.departments; ++d) {
    auto s = m->CreateEntity("department", nullptr);
    Check(s.status(), "create department");
    Check(m->SetField(*s, "department", "dept-nbr", sim::Value::Int(100 + d),
                      nullptr), "set dept-nbr");
    Check(m->SetField(*s, "department", "name", sim::Value::Str(DeptName(d)),
                      nullptr), "set dept name");
    dept.push_back(*s);
    clock->Tick();
  }
  for (int c = 0; c < p.courses; ++c) {
    auto s = m->CreateEntity("course", nullptr);
    Check(s.status(), "create course");
    Check(m->SetField(*s, "course", "course-no", sim::Value::Int(1 + c),
                      nullptr), "set course-no");
    Check(m->SetField(*s, "course", "title", sim::Value::Str(CourseTitle(c)),
                      nullptr), "set title");
    Check(m->SetField(*s, "course", "credits",
                      sim::Value::Int(p.credits[c]), nullptr), "set credits");
    if (c % kPrereqChain != 0) {
      Check(m->AddEvaPair("course", "prerequisites", *s, course[c - 1],
                          nullptr), "add prerequisite");
    }
    course.push_back(*s);
    clock->Tick();
  }
  for (int j = 0; j < p.instructors; ++j) {
    auto s = m->CreateEntity("instructor", nullptr);
    Check(s.status(), "create instructor");
    Check(m->SetField(*s, "person", "soc-sec-no", sim::Value::Int(InstrSsn(j)),
                      nullptr), "set instructor ssn");
    Check(m->SetField(*s, "person", "name", sim::Value::Str(InstrName(j)),
                      nullptr), "set instructor name");
    Check(m->SetField(*s, "instructor", "employee-nbr",
                      sim::Value::Int(EmployeeNbr(j)), nullptr),
          "set employee-nbr");
    Check(m->SetField(*s, "instructor", "salary",
                      sim::Value::Real(static_cast<double>(p.salary[j])),
                      nullptr), "set salary");
    Check(m->AddEvaPair("instructor", "assigned-department", *s,
                        dept[p.instr_dept[j]], nullptr),
          "add assigned-department");
    Check(m->AddEvaPair("instructor", "courses-taught", *s,
                        course[j % p.courses], nullptr),
          "add courses-taught");
    instr.push_back(*s);
    clock->Tick();
  }
  for (int i = 0; i < p.students; ++i) {
    auto s = m->CreateEntity("student", nullptr);
    Check(s.status(), "create student");
    Check(m->SetField(*s, "person", "soc-sec-no",
                      sim::Value::Int(StudentSsn(i)), nullptr),
          "set student ssn");
    Check(m->SetField(*s, "person", "name", sim::Value::Str(StudentName(i)),
                      nullptr), "set student name");
    Check(m->SetField(*s, "student", "student-nbr",
                      sim::Value::Int(StudentNbr(i)), nullptr),
          "set student-nbr");
    Check(m->AddEvaPair("student", "advisor", *s, instr[p.advisor[i]],
                        nullptr), "add advisor");
    Check(m->AddEvaPair("student", "major-department", *s, dept[p.major[i]],
                        nullptr), "add major-department");
    for (int c : p.enrolled[i]) {
      Check(m->AddEvaPair("student", "courses-enrolled", *s, course[c],
                          nullptr), "add courses-enrolled");
    }
    clock->Tick();
  }
}

struct SetupResult {
  std::unique_ptr<sim::Database> db;
  // Segment times: open + DDL, the load segments, the first durable commit.
  // Every set-up of one population has the same segments.
  std::vector<double> segments;
  double setup_s = 0;  // their sum
  double load_s = 0;   // the load segments: the mapper calls alone
};

SetupResult Setup(const Workload& w, const Population& p,
                  const std::string& path, bool obs) {
  sim::DatabaseOptions o;
  o.file_path = path;
  o.group_commit = w.writer;
  o.obs.enabled = obs;
  o.obs.trace_capacity_events = kTraceCapacity;
  SetupResult r;
  SegmentClock clock(LoadSegmentEntities(w));
  auto opened = sim::Database::Open(o);
  Check(opened.status(), "open");
  r.db = std::move(opened).value();
  Check(r.db->ExecuteDdl(kUniversityDdl), "ddl");
  auto mapper = r.db->mapper();
  Check(mapper.status(), "mapper");
  clock.Lap();
  Load(p, *mapper, &clock);
  clock.Lap();
  // The first durable commit: flushes every loaded page through the WAL and
  // lets the threshold checkpoint fold it into the database file.
  auto committed = r.db->ExecuteUpdate(
      "Modify department (name := \"Dept-0\") Where dept-nbr = 100");
  Check(committed.status(), "first commit");
  if (*committed != 1) Die("first commit touched no department");
  clock.Lap();
  r.segments = clock.laps();
  for (size_t i = 0; i < r.segments.size(); ++i) {
    r.setup_s += r.segments[i];
    if (i > 0 && i + 1 < r.segments.size()) r.load_s += r.segments[i];
  }
  return r;
}

// The fast edge of several set-ups: each segment's fastest time over the
// set-ups, summed. Interference from other tenants of the host only slows
// a segment down (NOTES.md, Noise), and each set-up is slowed in other
// places, so the sum keeps every segment's work and sheds most of the
// interference.
double SetupEdge(const std::vector<std::vector<double>>& setups) {
  double sum = 0;
  for (size_t i = 0; i < setups.front().size(); ++i) {
    double fastest = setups.front()[i];
    for (const std::vector<double>& s : setups) {
      fastest = std::min(fastest, s.at(i));
    }
    sum += fastest;
  }
  return sum;
}

// ---------------------------------------------------------------------------
// Oracle: results are compared through a digest of canonical rows.

std::string Real2(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

std::string Canon(const sim::Value& v) {
  switch (v.type()) {
    case sim::ValueType::kNull:
      return "?";
    case sim::ValueType::kBool:
      return v.bool_value() ? "T" : "F";
    case sim::ValueType::kInt:
      return std::to_string(v.int_value());
    case sim::ValueType::kReal:
      return Real2(v.real_value());
    case sim::ValueType::kString:
      return std::string(v.string_view_value());
    case sim::ValueType::kDate:
      return "d" + std::to_string(v.date_value());
    case sim::ValueType::kSurrogate:
      return "s" + std::to_string(v.surrogate_value());
  }
  return "!";
}

uint64_t Fnv(std::string_view s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Row count plus a checksum of the canonical rows: a sum (order-free) or a
// positional fold (for Order By).
struct Digest {
  uint64_t rows = 0;
  uint64_t sum = 0;
  void Add(const std::string& row, bool ordered) {
    uint64_t h = Fnv(row);
    sum = ordered ? sum * 0x100000001B3ull + h : sum + h;
    ++rows;
  }
  bool operator==(const Digest& o) const {
    return rows == o.rows && sum == o.sum;
  }
};

std::string RowKey(const std::vector<std::string>& values, int level) {
  std::string key = "L" + std::to_string(level);
  for (const std::string& v : values) {
    key += '|';
    key += v;
  }
  return key;
}

Digest DigestOf(const sim::ResultSet& rs, bool ordered) {
  Digest d;
  std::vector<std::string> values;
  for (const sim::Row& row : rs.rows) {
    values.clear();
    for (const sim::Value& v : row.values) values.push_back(Canon(v));
    d.Add(RowKey(values, rs.structured ? row.level : 0), ordered);
  }
  return d;
}

struct ReadStmt {
  std::string text;
  bool ordered = false;
  std::vector<Digest> accept;  // the statement passes if its result is one
};

// Builds one accepted result from expected rows.
class Expect {
 public:
  explicit Expect(bool ordered) : ordered_(ordered) {}
  void Row(const std::vector<std::string>& values, int level = 0) {
    d_.Add(RowKey(values, level), ordered_);
  }
  Digest digest() const { return d_; }

 private:
  bool ordered_;
  Digest d_;
};

std::string I(int64_t v) { return std::to_string(v); }

// Rows of `Title of Transitive(prerequisites)` for course c: every course
// down its chain, or one null row when it has none (target lists have
// outer-join semantics).
void ClosureRows(int c, Expect* e) {
  if (c % kPrereqChain == 0) e->Row({"?"});
  for (int x = c; x % kPrereqChain != 0; --x) e->Row({CourseTitle(x - 1)});
}

// ---------------------------------------------------------------------------
// Statement generators. Templates run in a fixed round-robin order, so each
// run executes the same mix; parameters are drawn from the client's rng.

class LookupGen {
 public:
  static constexpr int kTemplates = 6;
  // `concurrent_writer`: results may reflect the writer cycle, so the
  // oracle accepts every state the cycle can leave visible.
  LookupGen(const Population& p, uint64_t seed, bool concurrent_writer)
      : p_(p), rng_(seed), concurrent_writer_(concurrent_writer) {}

  ReadStmt Make(int tmpl) {
    ReadStmt st;
    Expect e(false);
    switch (tmpl) {
      case 0: {  // point lookup by unique key on the Person hierarchy
        int k = Uniform(p_.students + p_.instructors);
        bool student = k < p_.students;
        int64_t ssn = student ? StudentSsn(k) : InstrSsn(k - p_.students);
        st.text = "From Person Retrieve Name Where soc-sec-no = " + I(ssn);
        e.Row({student ? StudentName(k) : InstrName(k - p_.students)});
        break;
      }
      case 1: {  // point lookup by employee-nbr
        int j = Uniform(p_.instructors);
        st.text = "From Instructor Retrieve Name, salary Where employee-nbr = " +
                  I(EmployeeNbr(j));
        e.Row({InstrName(j), Real2(static_cast<double>(p_.salary[j]))});
        break;
      }
      case 2: {  // point lookup by course-no
        if (concurrent_writer_ && Uniform(8) == 0) {
          int k = kTempCourseBase + Uniform(kTempCourseSlots);
          st.text = "From Course Retrieve Title, credits Where course-no = " +
                    I(k);
          st.accept.push_back(Digest());  // between Delete and Insert
          e.Row({"Temp-" + I(k), "3"});
          break;
        }
        int c = Uniform(p_.courses);
        st.text = "From Course Retrieve Title, credits Where course-no = " +
                  I(1 + c);
        e.Row({CourseTitle(c), I(p_.credits[c])});
        break;
      }
      case 3: {  // one-hop EVA chain
        int i = Uniform(p_.students);
        st.text =
            "From Student Retrieve student-nbr, Name of Advisor "
            "Where soc-sec-no = " + I(StudentSsn(i));
        e.Row({I(StudentNbr(i)), InstrName(p_.advisor[i])});
        if (concurrent_writer_) {
          Expect modified(false);
          modified.Row({I(ModifiedStudentNbr(i)), InstrName(p_.advisor[i])});
          st.accept.push_back(modified.digest());
        }
        break;
      }
      case 4: {  // per-entity aggregate
        int j = Uniform(p_.instructors);
        st.text =
            "From Instructor Retrieve Name, count(advisees) of Instructor "
            "Where employee-nbr = " + I(EmployeeNbr(j));
        e.Row({InstrName(j), I(static_cast<int64_t>(p_.advisees[j].size()))});
        break;
      }
      default: {  // transitive closure from one course
        int c = Uniform(p_.courses);
        st.text =
            "From Course Retrieve Title of Transitive(prerequisites) "
            "Where course-no = " + I(1 + c);
        ClosureRows(c, &e);
        break;
      }
    }
    st.accept.push_back(e.digest());
    return st;
  }

 private:
  int Uniform(int n) {
    return static_cast<int>(rng_() % static_cast<uint64_t>(n));
  }
  const Population& p_;
  std::mt19937_64 rng_;
  bool concurrent_writer_;
};

class AnalyticGen {
 public:
  static constexpr int kTemplates = 11;
  AnalyticGen(const Population& p, uint64_t seed) : p_(p), rng_(seed) {}

  ReadStmt Make(int tmpl) {
    ReadStmt st;
    switch (tmpl) {
      case 0: {  // DVA range predicate over the whole Student extent
        constexpr int kWidth = 200;
        int a = Uniform(p_.students - kWidth);
        st.text = "From Student Retrieve Name, student-nbr Where student-nbr >= " +
                  I(StudentNbr(a)) + " and student-nbr < " +
                  I(StudentNbr(a + kWidth));
        Expect e(false);
        for (int i = a; i < a + kWidth; ++i) {
          e.Row({StudentName(i), I(StudentNbr(i))});
        }
        st.accept.push_back(e.digest());
        break;
      }
      case 1: {  // EVA-traversal join in the qualification
        int j = Uniform(p_.instructors);
        st.text = "From Student Retrieve Name Where Name of Advisor = \"" +
                  InstrName(j) + "\"";
        Expect e(false);
        for (int i : p_.advisees[j]) e.Row({StudentName(i)});
        st.accept.push_back(e.digest());
        break;
      }
      case 2: {  // aggregate with scope
        st.text =
            "From Department Retrieve Name, "
            "avg(salary of instructors-employed) of Department";
        Expect e(false);
        for (int d = 0; d < p_.departments; ++d) {
          int64_t sum = 0;
          for (int j : p_.dept_instructors[d]) sum += p_.salary[j];
          double n = static_cast<double>(p_.dept_instructors[d].size());
          e.Row({DeptName(d), Real2(static_cast<double>(sum) / n)});
        }
        st.accept.push_back(e.digest());
        break;
      }
      case 3: {  // count with scope, DVA predicate
        int k = 1 + Uniform(8);
        st.text =
            "From Course Retrieve Title, count(students-enrolled) of Course "
            "Where credits = " + I(k);
        Expect e(false);
        for (int c = 0; c < p_.courses; ++c) {
          if (p_.credits[c] == k) {
            e.Row({CourseTitle(c), I(p_.enroll_count[c])});
          }
        }
        st.accept.push_back(e.digest());
        break;
      }
      case 4: {  // TYPE 2: some
        int d = Uniform(p_.departments);
        int k = 6 + Uniform(3);
        st.text = "From Student Retrieve Name Where Name of major-department = \"" +
                  DeptName(d) + "\" and " + I(k) +
                  " <= some(credits of courses-enrolled)";
        Expect e(false);
        for (int i = 0; i < p_.students; ++i) {
          if (p_.major[i] != d) continue;
          bool any = false;
          for (int c : p_.enrolled[i]) any = any || p_.credits[c] >= k;
          if (any) e.Row({StudentName(i)});
        }
        st.accept.push_back(e.digest());
        break;
      }
      case 5: {  // TYPE 2: all, over a two-hop path
        int k = 2;
        st.text = "From Instructor Retrieve Name Where " + I(k) +
                  " <= all(credits of courses-enrolled of advisees)";
        Expect e(false);
        for (int j = 0; j < p_.instructors; ++j) {
          bool all = true;
          for (int i : p_.advisees[j]) {
            for (int c : p_.enrolled[i]) all = all && p_.credits[c] >= k;
          }
          if (all) e.Row({InstrName(j)});
        }
        st.accept.push_back(e.digest());
        break;
      }
      case 6: {  // TYPE 2: no
        int d = Uniform(p_.departments);
        st.text = "From Instructor Retrieve Name Where \"" + DeptName(d) +
                  "\" = no(name of major-department of advisees)";
        Expect e(false);
        for (int j = 0; j < p_.instructors; ++j) {
          bool none = true;
          for (int i : p_.advisees[j]) none = none && p_.major[i] != d;
          if (none) e.Row({InstrName(j)});
        }
        st.accept.push_back(e.digest());
        break;
      }
      case 7: {  // TYPE 3: outer-join structure output
        constexpr int kWidth = 100;
        int a = Uniform(p_.students - kWidth);
        st.text =
            "From Student Retrieve Structure Name, Title of Courses-Enrolled "
            "Where student-nbr >= " + I(StudentNbr(a)) +
            " and student-nbr < " + I(StudentNbr(a + kWidth));
        Expect e(false);
        for (int i = a; i < a + kWidth; ++i) {
          e.Row({StudentName(i)}, 0);
          for (int c : p_.enrolled[i]) e.Row({CourseTitle(c)}, 1);
        }
        st.accept.push_back(e.digest());
        break;
      }
      case 8: {  // transitive closure over a course range
        constexpr int kWidth = 40;
        int a = Uniform(p_.courses - kWidth);
        st.text =
            "From Course Retrieve Title of Transitive(prerequisites) "
            "Where course-no >= " + I(1 + a) + " and course-no < " +
            I(1 + a + kWidth);
        Expect e(false);
        for (int c = a; c < a + kWidth; ++c) ClosureRows(c, &e);
        st.accept.push_back(e.digest());
        break;
      }
      case 9: {  // Order By + Limit
        constexpr int kLimit = 25;
        int64_t floor = 30000 + 500 * Uniform(60);
        st.text = "From Instructor Retrieve Name, salary Where salary >= " +
                  I(floor) + " Order By salary Desc, Name Limit " +
                  I(kLimit);
        st.ordered = true;
        std::vector<int> hits;
        for (int j = 0; j < p_.instructors; ++j) {
          if (p_.salary[j] >= floor) hits.push_back(j);
        }
        std::sort(hits.begin(), hits.end(), [this](int x, int y) {
          if (p_.salary[x] != p_.salary[y]) return p_.salary[x] > p_.salary[y];
          return InstrName(x) < InstrName(y);
        });
        if (hits.size() > kLimit) hits.resize(kLimit);
        Expect e(true);
        for (int j : hits) {
          e.Row({InstrName(j), Real2(static_cast<double>(p_.salary[j]))});
        }
        st.accept.push_back(e.digest());
        break;
      }
      default: {  // Order By an EVA path, after an EVA predicate
        constexpr int kLimit = 50;
        int d = Uniform(p_.departments);
        st.text =
            "From Student Retrieve Name, Name of Advisor "
            "Where Name of major-department = \"" + DeptName(d) +
            "\" Order By Name of Advisor, Name Limit " + I(kLimit);
        st.ordered = true;
        std::vector<std::pair<std::string, std::string>> hits;
        for (int i = 0; i < p_.students; ++i) {
          if (p_.major[i] == d) {
            hits.emplace_back(InstrName(p_.advisor[i]), StudentName(i));
          }
        }
        std::sort(hits.begin(), hits.end());
        if (hits.size() > kLimit) hits.resize(kLimit);
        Expect e(true);
        for (const auto& [advisor, name] : hits) e.Row({name, advisor});
        st.accept.push_back(e.digest());
        break;
      }
    }
    return st;
  }

 private:
  int Uniform(int n) {
    return static_cast<int>(rng_() % static_cast<uint64_t>(n));
  }
  const Population& p_;
  std::mt19937_64 rng_;
};

// The writer cycle: four autocommit statements that leave the population
// exactly as they found it, so reader expectations stay fixed.
class WriterGen {
 public:
  static constexpr int kStatements = 4;
  WriterGen(const Population& p, uint64_t seed) : p_(p), rng_(seed) {}

  std::string Make(int step) {
    if (step == 0) {
      student_ = static_cast<int>(rng_() % static_cast<uint64_t>(p_.students));
      course_ = kTempCourseBase + static_cast<int>(cycle_++ % kTempCourseSlots);
    }
    switch (step) {
      case 0:
        return "Modify student (student-nbr := " +
               I(ModifiedStudentNbr(student_)) + ") Where soc-sec-no = " +
               I(StudentSsn(student_));
      case 1:
        return "Insert course (course-no := " + I(course_) +
               ", title := \"Temp-" + I(course_) + "\", credits := 3)";
      case 2:
        return "Modify student (student-nbr := " + I(StudentNbr(student_)) +
               ") Where soc-sec-no = " + I(StudentSsn(student_));
      default:
        return "Delete course Where course-no = " + I(course_);
    }
  }

 private:
  const Population& p_;
  std::mt19937_64 rng_;
  int student_ = 0;
  int course_ = 0;
  uint64_t cycle_ = 0;
};

// ---------------------------------------------------------------------------
// Public counters, read before and after a phase.

struct Counters {
  sim::BufferPool::Stats pool;
  sim::WriteAheadLog::Stats wal;
  uint64_t lock_acquisitions = 0, lock_waits = 0;
  uint64_t luc_mutations = 0, opt_refreshes = 0;
};

Counters Snapshot(sim::Database* db) {
  Counters c;
  c.pool = db->buffer_pool().stats();
  c.wal = db->wal()->stats();
  c.lock_acquisitions = db->lock_stats().acquisitions.value();
  c.lock_waits = db->lock_stats().waits.value();
  for (const sim::obs::Sample& s : db->metrics().Samples()) {
    if (s.name == "simdb_luc_mutations_total") c.luc_mutations = s.value;
    if (s.name == "simdb_opt_stats_refreshes_total") c.opt_refreshes = s.value;
  }
  return c;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Trace harvesting. TraceLog keeps a bounded ring; the harvester copies it
// before it wraps, resumes after the last event it consumed, and folds each
// finished statement (all spans share its statement id; the "statement"
// span ends last) into per-layer sums.

struct LayerSums {
  uint64_t reads = 0, updates = 0;
  double parse_us = 0, bind_us = 0, optimize_us = 0, map_us = 0;
  double execute_us = 0, api_self_us = 0, statement_us = 0;
  double update_execute_us = 0;
  uint64_t combinations = 0, rows = 0;
  uint64_t nesting_violations = 0;  // children longer than their statement
};

class Harvester {
 public:
  explicit Harvester(sim::obs::TraceLog* log) : log_(log) {}

  // Consumes every event recorded since the previous call. Sets lost()
  // when the ring wrapped past the last consumed event.
  void Harvest() {
    std::vector<sim::obs::TraceEvent> events = log_->Events();
    size_t from = 0;
    if (have_last_) {
      size_t i = events.size();
      while (i > 0 && !SameEvent(events[i - 1], last_)) --i;
      if (i == 0) {
        lost_ = true;
        return;
      }
      from = i;
    }
    for (size_t i = from; i < events.size(); ++i) Fold(events[i]);
    if (!events.empty()) {
      last_ = events.back();
      have_last_ = true;
    }
  }

  // Drops everything folded so far (events before the timed phase).
  void Reset() {
    sums_ = LayerSums();
    pending_.clear();
  }

  const LayerSums& sums() const { return sums_; }
  bool lost() const { return lost_; }

 private:
  struct Child {
    std::string span;
    uint64_t dur_us;
    uint64_t combinations, rows;
  };

  static bool SameEvent(const sim::obs::TraceEvent& a,
                        const sim::obs::TraceEvent& b) {
    return a.stmt == b.stmt && a.start_us == b.start_us &&
           a.dur_us == b.dur_us && a.span == b.span;
  }

  static uint64_t Attr(const sim::obs::TraceEvent& e, std::string_view key) {
    for (const auto& [k, v] : e.attrs) {
      if (k == key) return v;
    }
    return 0;
  }

  void Fold(const sim::obs::TraceEvent& e) {
    if (e.stmt == 0) return;  // audit spans, not tied to a statement
    if (e.span != "statement") {
      pending_[e.stmt].push_back(
          {e.span, e.dur_us, Attr(e, "combinations"), Attr(e, "rows")});
      return;
    }
    std::vector<Child> children;
    auto it = pending_.find(e.stmt);
    if (it != pending_.end()) {
      children = std::move(it->second);
      pending_.erase(it);
    }
    uint64_t child_us = 0;
    for (const Child& c : children) child_us += c.dur_us;
    // Span times are whole microseconds: each child may read up to 1 us
    // long, the statement up to 1 us short.
    if (child_us > e.dur_us + children.size() + 1) ++sums_.nesting_violations;
    bool read = e.detail.rfind("From", 0) == 0;
    bool update = e.detail.rfind("Modify", 0) == 0 ||
                  e.detail.rfind("Insert", 0) == 0 ||
                  e.detail.rfind("Delete", 0) == 0;
    if (update) {
      ++sums_.updates;
      for (const Child& c : children) {
        if (c.span == "execute") sums_.update_execute_us += c.dur_us;
      }
      return;
    }
    if (!read) return;
    ++sums_.reads;
    sums_.statement_us += e.dur_us;
    sums_.api_self_us += static_cast<double>(e.dur_us) -
                         static_cast<double>(child_us);
    for (const Child& c : children) {
      if (c.span == "parse") sums_.parse_us += c.dur_us;
      if (c.span == "bind") sums_.bind_us += c.dur_us;
      if (c.span == "optimize") sums_.optimize_us += c.dur_us;
      if (c.span == "map") sums_.map_us += c.dur_us;
      if (c.span == "execute") {
        sums_.execute_us += c.dur_us;
        sums_.combinations += c.combinations;
        sums_.rows += c.rows;
      }
    }
  }

  sim::obs::TraceLog* log_;
  bool have_last_ = false;
  bool lost_ = false;
  sim::obs::TraceEvent last_;
  std::unordered_map<uint64_t, std::vector<Child>> pending_;
  LayerSums sums_;
};

// ---------------------------------------------------------------------------
// Clients

// Window statistics of one client. A window closes at the end of the first
// round (one pass over the client's templates, or one writer cycle) that
// ends kWindowSeconds after the window began. p99 needs more samples than a
// window may hold, so it comes from tail windows: consecutive windows merged
// until they hold kTailSamples statements.
struct Window {
  double ops_per_s, rows_per_s, p50_us;
};

struct ClientStats {
  std::vector<Window> windows;
  std::vector<double> tail_p99_us;
  // The open window and tail window: latencies of their successful
  // statements, the window's start (seconds since the phase began), rows
  // and busy time (time inside Database calls).
  std::vector<double> win_lat, tail_lat;
  double win_start_s = 0, win_busy_us = 0;
  uint64_t win_rows = 0;
  // Successful statements over the whole phase.
  uint64_t ok = 0, rows = 0;
  double busy_us = 0;
  std::vector<double> tmpl_busy_us;  // per template
  std::vector<uint64_t> tmpl_ok;
  uint64_t attempted = 0, failed = 0, mismatched = 0;
  // Writer only: WAL growth of commits that did not checkpoint.
  uint64_t wal_bytes = 0, wal_commits = 0;
  std::string first_error;
};

double Percentile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * v->size()));
  size_t i = std::min(v->size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v->begin(), v->begin() + i, v->end());
  return (*v)[i];
}

double Median(std::vector<double> v) { return Percentile(&v, 0.5); }

void Record(ClientStats* cs, int tmpl, double us, uint64_t rows) {
  cs->win_lat.push_back(us);
  cs->win_busy_us += us;
  cs->win_rows += rows;
  ++cs->ok;
  cs->rows += rows;
  cs->busy_us += us;
  if (cs->tmpl_ok.size() <= static_cast<size_t>(tmpl)) {
    cs->tmpl_ok.resize(tmpl + 1);
    cs->tmpl_busy_us.resize(tmpl + 1);
  }
  ++cs->tmpl_ok[tmpl];
  cs->tmpl_busy_us[tmpl] += us;
}

// Rates use busy time, so the benchmark's own statement generation and
// result checking stay out of them.
void CloseWindow(ClientStats* cs, double now_s) {
  double busy_s = cs->win_busy_us * 1e-6;
  double n = static_cast<double>(cs->win_lat.size());
  double rows = static_cast<double>(cs->win_rows);
  cs->windows.push_back({busy_s > 0 ? n / busy_s : 0,
                         busy_s > 0 ? rows / busy_s : 0,
                         Percentile(&cs->win_lat, 0.5)});
  cs->tail_lat.insert(cs->tail_lat.end(), cs->win_lat.begin(),
                      cs->win_lat.end());
  if (cs->tail_lat.size() >= kTailSamples) {
    cs->tail_p99_us.push_back(Percentile(&cs->tail_lat, 0.99));
    cs->tail_lat.clear();
  }
  cs->win_lat.clear();
  cs->win_start_s = now_s;
  cs->win_busy_us = 0;
  cs->win_rows = 0;
}

void EndRound(ClientStats* cs, double now_s) {
  if (now_s - cs->win_start_s >= kWindowSeconds) CloseWindow(cs, now_s);
}

// At the end of a phase the partial windows are dropped, except that a
// client that never filled one reports the whole phase as one.
void EndPhase(ClientStats* cs, double now_s) {
  if (cs->windows.empty() && !cs->win_lat.empty()) CloseWindow(cs, now_s);
  if (cs->tail_p99_us.empty() && !cs->tail_lat.empty()) {
    cs->tail_p99_us.push_back(Percentile(&cs->tail_lat, 0.99));
  }
}

// Interference from other tenants of the host only ever slows a window
// down, and it comes and goes over seconds, so the estimates take the fast
// edge of the window distribution: the lowest decile of latencies and the
// highest decile of rates (NOTES.md, Noise).
constexpr double kFastLatency = 0.1;
constexpr double kFastRate = 0.9;

double WindowQuantile(const std::vector<const ClientStats*>& cs,
                      double Window::*field, double q) {
  std::vector<double> v;
  for (const ClientStats* c : cs) {
    for (const Window& w : c->windows) v.push_back(w.*field);
  }
  return Percentile(&v, q);
}

double LatencyP50(const std::vector<const ClientStats*>& cs) {
  return WindowQuantile(cs, &Window::p50_us, kFastLatency);
}

double LatencyP99(const std::vector<const ClientStats*>& cs) {
  std::vector<double> v;
  for (const ClientStats* c : cs) {
    v.insert(v.end(), c->tail_p99_us.begin(), c->tail_p99_us.end());
  }
  return Percentile(&v, kFastLatency);
}

// Sum over clients of each one's rate.
double SummedRate(const std::vector<const ClientStats*>& cs,
                  double Window::*field) {
  double sum = 0;
  for (const ClientStats* c : cs) sum += WindowQuantile({c}, field, kFastRate);
  return sum;
}

struct RunControl {
  Clock::time_point start = Clock::now();
  Clock::time_point deadline = start;
  std::atomic<uint64_t> statements{0};  // finished by all clients
  Harvester* harvester = nullptr;       // client 0 drains it when set
};

// Called by client 0 at a round boundary: drains the trace ring once the
// clients together have finished half a ring's worth of statements since
// the last drain. A statement records at most 6 spans, so the ring never
// wraps between drains.
void MaybeHarvest(RunControl* ctl, uint64_t* harvested_at) {
  constexpr uint64_t kHarvestEvery = kTraceCapacity / 2 / 6;
  uint64_t done = ctl->statements.load(std::memory_order_relaxed);
  if (done - *harvested_at >= kHarvestEvery) {
    ctl->harvester->Harvest();
    *harvested_at = done;
  }
}

void NoteError(ClientStats* cs, const std::string& what) {
  if (cs->first_error.empty()) cs->first_error = what;
}

// Runs one read statement and checks it against the oracle.
void RunRead(sim::Database* db, int tmpl, const ReadStmt& st,
             ClientStats* cs) {
  ++cs->attempted;
  Clock::time_point t0 = Clock::now();
  auto rs = db->ExecuteQuery(st.text);
  double us = std::chrono::duration<double, std::micro>(Clock::now() - t0)
                  .count();
  if (!rs.ok()) {
    ++cs->failed;
    NoteError(cs, st.text + " -> " + rs.status().ToString());
    return;
  }
  Record(cs, tmpl, us, rs->rows.size());
  Digest got = DigestOf(*rs, st.ordered);
  if (std::find(st.accept.begin(), st.accept.end(), got) == st.accept.end()) {
    ++cs->failed;
    ++cs->mismatched;
    NoteError(cs, st.text + " -> unexpected result (" +
                      std::to_string(got.rows) + " rows)\n" +
                      rs->ToString());
  }
}

// Closed-loop reader: whole rounds of the template mix until the deadline.
template <typename Gen>
void ReaderLoop(sim::Database* db, Gen gen, RunControl* ctl, bool harvests,
                ClientStats* cs) {
  uint64_t harvested_at = 0;
  do {
    for (int t = 0; t < Gen::kTemplates; ++t) {
      RunRead(db, t, gen.Make(t), cs);
      ctl->statements.fetch_add(1, std::memory_order_relaxed);
    }
    EndRound(cs, SecondsSince(ctl->start));
    if (harvests) MaybeHarvest(ctl, &harvested_at);
  } while (Clock::now() < ctl->deadline);
  EndPhase(cs, SecondsSince(ctl->start));
}

// One writer statement, retried while it fails (each failure counts).
void RunWrite(sim::Database* db, const std::string& text, ClientStats* cs) {
  for (int attempt = 0; attempt < 3; ++attempt) {
    ++cs->attempted;
    uint64_t wal_before = db->wal()->size_bytes();
    uint64_t ckpt_before = db->wal()->stats().checkpoints;
    Clock::time_point t0 = Clock::now();
    auto r = db->ExecuteUpdate(text);
    double us = std::chrono::duration<double, std::micro>(Clock::now() - t0)
                    .count();
    if (!r.ok()) {
      ++cs->failed;
      NoteError(cs, text + " -> " + r.status().ToString());
      continue;
    }
    Record(cs, 0, us, 0);
    uint64_t wal_after = db->wal()->size_bytes();
    if (db->wal()->stats().checkpoints == ckpt_before &&
        wal_after >= wal_before) {
      cs->wal_bytes += wal_after - wal_before;
      ++cs->wal_commits;
    }
    if (*r != 1) {
      ++cs->failed;
      ++cs->mismatched;
      NoteError(cs, text + " -> affected " + std::to_string(*r));
    }
    return;
  }
  Die("writer statement failed three times: " + cs->first_error);
}

// Closed-loop writer: whole cycles until the deadline.
void WriterLoop(sim::Database* db, WriterGen gen, RunControl* ctl,
                bool harvests, ClientStats* cs) {
  uint64_t harvested_at = 0;
  do {
    for (int s = 0; s < WriterGen::kStatements; ++s) {
      RunWrite(db, gen.Make(s), cs);
      ctl->statements.fetch_add(1, std::memory_order_relaxed);
    }
    EndRound(cs, SecondsSince(ctl->start));
    if (harvests) MaybeHarvest(ctl, &harvested_at);
  } while (Clock::now() < ctl->deadline);
  EndPhase(cs, SecondsSince(ctl->start));
}

// ---------------------------------------------------------------------------
// One timed phase over an already set-up database.

struct PhaseResult {
  std::vector<ClientStats> readers;
  ClientStats writer;
  Counters before, after;
  bool has_writer = false;
};

PhaseResult RunPhase(const Workload& w, const Population& p,
                     sim::Database* db, uint64_t seed, double seconds,
                     Harvester* harvester) {
  // Warm-up: one round of every template (and one writer cycle) so lazy
  // set-up and the first cache fills are not timed.
  {
    ClientStats warm;
    if (w.readers > 0 && w.analytic) {
      AnalyticGen g(p, seed ^ 0xA11);
      for (int t = 0; t < AnalyticGen::kTemplates; ++t) {
        RunRead(db, t, g.Make(t), &warm);
      }
    } else if (w.readers > 0) {
      LookupGen g(p, seed ^ 0xA11, w.writer);
      for (int t = 0; t < LookupGen::kTemplates; ++t) {
        RunRead(db, t, g.Make(t), &warm);
      }
    }
    if (w.writer) {
      RunControl ctl;
      WriterLoop(db, WriterGen(p, seed ^ 0xA12), &ctl, false, &warm);
    }
    if (warm.failed != 0) Die("warm-up failed: " + warm.first_error);
  }
  if (harvester != nullptr) {
    harvester->Harvest();
    harvester->Reset();
  }

  PhaseResult r;
  r.readers.resize(w.readers);
  r.has_writer = w.writer;
  RunControl ctl;
  ctl.harvester = harvester;
  r.before = Snapshot(db);
  ctl.start = Clock::now();
  ctl.deadline = ctl.start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  // Client 0, which drains the trace ring, is reader 0 or else the writer.
  for (int c = 0; c < w.readers; ++c) {
    uint64_t cseed = seed * 1000003 + 101 + c;
    bool harvests = harvester != nullptr && c == 0;
    ClientStats* cs = &r.readers[c];
    if (w.analytic) {
      threads.emplace_back(ReaderLoop<AnalyticGen>, db, AnalyticGen(p, cseed),
                           &ctl, harvests, cs);
    } else {
      threads.emplace_back(ReaderLoop<LookupGen>, db,
                           LookupGen(p, cseed, w.writer), &ctl, harvests, cs);
    }
  }
  if (w.writer) {
    threads.emplace_back(WriterLoop, db, WriterGen(p, seed * 1000003 + 7),
                         &ctl, harvester != nullptr && w.readers == 0,
                         &r.writer);
  }
  for (std::thread& t : threads) t.join();
  r.after = Snapshot(db);
  if (harvester != nullptr) harvester->Harvest();
  return r;
}

// The commit probe of read-only workloads: the writer cycle, alone.
PhaseResult RunProbe(const Workload& w, const Population& p,
                     sim::Database* db, uint64_t seed, Harvester* harvester) {
  const Workload probe{w.name, w.students, 0, true, false};
  return RunPhase(probe, p, db, seed, kProbeSeconds, harvester);
}

struct CheckResult {
  double seconds = 0;
  uint64_t findings = 0;
  std::string first;
};

// One CHECK DATABASE, timed.
CheckResult CheckDatabase(sim::Database* db) {
  CheckResult c;
  Clock::time_point t0 = Clock::now();
  auto rs = db->ExecuteQuery("Check Database");
  c.seconds = SecondsSince(t0);
  Check(rs.status(), "CHECK DATABASE");
  c.findings = rs->rows.size();
  if (!rs->rows.empty()) {
    for (const sim::Value& v : rs->rows.front().values) {
      c.first += Canon(v) + " ";
    }
  }
  return c;
}

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Tally {
  uint64_t attempted = 0, failed = 0, mismatched = 0;
  std::string first_error;
  void Add(const ClientStats& cs) {
    attempted += cs.attempted;
    failed += cs.failed;
    mismatched += cs.mismatched;
    if (first_error.empty()) first_error = cs.first_error;
  }
  void Add(const PhaseResult& r) {
    for (const ClientStats& cs : r.readers) Add(cs);
    if (r.has_writer) Add(r.writer);
  }
};

std::string Json(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Emit(bool correct, const Tally& tally, const std::vector<Metric>& ms) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + Json(ms[i].value) +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void PrintTable(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-38s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<const ClientStats*> Clients(const std::vector<ClientStats>& cs) {
  std::vector<const ClientStats*> out;
  for (const ClientStats& c : cs) out.push_back(&c);
  return out;
}

double ReadBusyUs(const PhaseResult& r) {
  double us = 0;
  for (const ClientStats& c : r.readers) us += c.busy_us;
  return us;
}

uint64_t Reads(const PhaseResult& r) {
  uint64_t n = 0;
  for (const ClientStats& c : r.readers) n += c.ok;
  return n;
}

// Write-path numbers of a phase with a writer (the timed phase of
// oltp_mixed, the commit probe otherwise).
struct WriteNumbers {
  double ops_per_s, p50_us, p99_us, wal_bytes_per_commit;
  uint64_t commits;
};

WriteNumbers WriteStats(const PhaseResult& w) {
  WriteNumbers n{};
  n.commits = w.writer.ok;
  n.ops_per_s = SummedRate({&w.writer}, &Window::ops_per_s);
  n.p50_us = LatencyP50({&w.writer});
  n.p99_us = LatencyP99({&w.writer});
  n.wal_bytes_per_commit =
      Ratio(static_cast<double>(w.writer.wal_bytes),
            static_cast<double>(w.writer.wal_commits));
  return n;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--dir") a.dir = v;
    else Die("unknown argument " + k);
  }
  if (a.dir.empty()) Die("--dir is required");
  if (!(a.seconds > 0)) Die("--seconds must be positive");
  return a;
}

void RemoveDb(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(path + ".wal", ec);
}

}  // namespace

int main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads) {
    if (args.workload == c.name) w = &c;
  }
  if (w == nullptr) Die("unknown workload " + args.workload);
  std::filesystem::create_directories(args.dir);
  const Population pop = Generate(w->students, args.seed);
  std::printf("workload %s seed %llu: %llu entities (%d students, %d "
              "instructors, %d courses, %d departments), %d reader(s)%s, "
              "%s, nproc %u\n",
              w->name, static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(pop.entities()), pop.students,
              pop.instructors, pop.courses, pop.departments, w->readers,
              w->writer ? " + 1 writer" : "",
              w->writer ? "group commit" : "fsync per commit",
              std::thread::hardware_concurrency());

  Tally tally;
  std::vector<Metric> metrics, report;
  bool correct = true;

  if (!args.trace) {
    // Untraced run: the end-to-end metrics.
    std::vector<std::vector<double>> setups;
    std::vector<double> totals;
    const std::string path = args.dir + "/db";
    auto set_up = [&]() {
      SetupResult r = Setup(*w, pop, path, false);
      setups.push_back(r.segments);
      totals.push_back(r.setup_s);
      std::printf("setup %zu: %.3f s (load %.3f s), peak rss %.1f MB\n",
                  setups.size() - 1, r.setup_s, r.load_s, PeakRssMb());
      return r;
    };
    SetupResult s;
    for (int r = 0; r < SetupsEachSide(*w); ++r) {
      if (s.db != nullptr) {
        s.db.reset();
        RemoveDb(path);
      }
      s = set_up();
    }
    std::printf("pages %llu against %zu pool frames\n",
                static_cast<unsigned long long>(s.db->pager().page_count()),
                s.db->options().buffer_pool_frames);
    PhaseResult ph = RunPhase(*w, pop, s.db.get(), args.seed, args.seconds,
                              nullptr);
    tally.Add(ph);
    PhaseResult probe;
    if (!w->writer) {
      probe = RunProbe(*w, pop, s.db.get(), args.seed, nullptr);
      tally.Add(probe);
    }
    CheckResult chk = CheckDatabase(s.db.get());
    s.db.reset();
    RemoveDb(path);
    for (int r = 0; r < SetupsEachSide(*w); ++r) {
      set_up();
      RemoveDb(path);
    }
    const double setup_s = SetupEdge(setups);
    std::printf("setup: fast edge %.3f s over %zu segments, median %.3f s\n",
                setup_s, setups.front().size(), Median(totals));

    const std::vector<const ClientStats*> readers = Clients(ph.readers);
    WriteNumbers wn = WriteStats(w->writer ? ph : probe);
    metrics = {
        {"setup_s", setup_s, "s"},
        {"read_ops_per_s", SummedRate(readers, &Window::ops_per_s), "1/s"},
        {"rows_per_s", SummedRate(readers, &Window::rows_per_s), "1/s"},
        {"wal_bytes_per_commit", wn.wal_bytes_per_commit, "B"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
    // Measured and printed, but too noisy on a shared host to gate a
    // change (NOTES.md, Noise).
    report = {
        {"read_p50_us", LatencyP50(readers), "us"},
        {"read_p99_us", LatencyP99(readers), "us"},
        {"write_ops_per_s", wn.ops_per_s, "1/s"},
        {"commit_p50_us", wn.p50_us, "us"},
        {"commit_p99_us", wn.p99_us, "us"},
        {"check_s", chk.seconds, "s"},
    };
    const ClientStats& r0 = ph.readers[0];
    for (size_t t = 0; t < r0.tmpl_ok.size(); ++t) {
      std::printf("template %zu: %llu reads by reader 0, mean %.1f us\n", t,
                  static_cast<unsigned long long>(r0.tmpl_ok[t]),
                  Ratio(r0.tmpl_busy_us[t], static_cast<double>(r0.tmpl_ok[t])));
    }
    size_t windows = 0;
    for (const ClientStats* c : readers) windows += c->windows.size();
    std::printf("samples: %llu reads in %zu windows, %llu commits in %zu "
                "windows (%s); audit findings %llu%s%s\n",
                static_cast<unsigned long long>(Reads(ph)), windows,
                static_cast<unsigned long long>(wn.commits),
                (w->writer ? ph : probe).writer.windows.size(),
                w->writer ? "timed phase" : "commit probe",
                static_cast<unsigned long long>(chk.findings),
                chk.findings ? ", first: " : "", chk.first.c_str());
  } else {
    // Traced run: an untraced phase for the overhead baseline, then the
    // same phase with tracing on, which yields the per-layer metrics.
    const double half = args.seconds / 2;
    const std::string plain_path = args.dir + "/plain";
    double plain_ops = 0;
    {
      SetupResult s = Setup(*w, pop, plain_path, false);
      PhaseResult ph = RunPhase(*w, pop, s.db.get(), args.seed, half, nullptr);
      tally.Add(ph);
      plain_ops = SummedRate(Clients(ph.readers), &Window::ops_per_s);
    }
    RemoveDb(plain_path);

    const std::string path = args.dir + "/traced";
    SetupResult s = Setup(*w, pop, path, true);
    Harvester harvester(s.db->trace_log());
    PhaseResult ph = RunPhase(*w, pop, s.db.get(), args.seed, half,
                              &harvester);
    tally.Add(ph);
    LayerSums rl = harvester.sums();
    PhaseResult probe;
    LayerSums wl = rl;
    const PhaseResult* wp = &ph;
    if (!w->writer) {
      probe = RunProbe(*w, pop, s.db.get(), args.seed, &harvester);
      tally.Add(probe);
      wl = harvester.sums();
      wp = &probe;
    }
    const bool lost = harvester.lost();
    CheckResult chk = CheckDatabase(s.db.get());
    s.db.reset();
    RemoveDb(path);

    // Both rates count time inside Database calls only, so harvesting the
    // ring between statements is left out.
    double traced_ops = SummedRate(Clients(ph.readers), &Window::ops_per_s);
    std::printf("read_ops_per_s untraced %.1f, traced %.1f\n", plain_ops,
                traced_ops);
    const Counters& b = ph.before;
    const Counters& a = ph.after;
    double stmts = static_cast<double>(rl.reads + rl.updates);
    double reads = static_cast<double>(rl.reads);
    double commits = static_cast<double>(wp->writer.ok);
    const Counters& wb = wp->before;
    const Counters& wa = wp->after;
    double wal_pages = static_cast<double>(wa.wal.pages_appended -
                                           wb.wal.pages_appended);
    WriteNumbers wn = WriteStats(*wp);
    double fetches = static_cast<double>(a.pool.logical_fetches -
                                         b.pool.logical_fetches);
    double misses = static_cast<double>(a.pool.misses - b.pool.misses);
    double ckpts = static_cast<double>(wa.wal.checkpoints -
                                       wb.wal.checkpoints);
    // Commit records the log made durable: one per fsync'd commit or
    // group-commit batch. The log counts each checkpoint's new baseline as
    // a commit too, so those are taken out.
    double commit_records =
        static_cast<double>(wa.wal.commits - wb.wal.commits) - ckpts;
    metrics = {
        {"parser.parse_us", Ratio(rl.parse_us, reads), "us"},
        {"semantics.bind_us", Ratio(rl.bind_us, reads), "us"},
        {"optimizer.optimize_us", Ratio(rl.optimize_us, reads), "us"},
        {"exec.map_us", Ratio(rl.map_us, reads), "us"},
        {"exec.execute_us", Ratio(rl.execute_us, reads), "us"},
        {"api.self_us", Ratio(rl.api_self_us, reads), "us"},
        {"api.statement_us", Ratio(rl.statement_us, reads), "us"},
        {"exec.combinations_per_row",
         Ratio(static_cast<double>(rl.combinations),
               static_cast<double>(rl.rows)), "ratio"},
        {"optimizer.stats_refreshes_per_kop",
         Ratio(1000.0 * static_cast<double>(a.opt_refreshes - b.opt_refreshes),
               stmts), "1/kop"},
        {"storage.pool_fetches_per_stmt", Ratio(fetches, stmts), "count"},
        {"storage.pool_misses_per_stmt", Ratio(misses, stmts), "count"},
        {"storage.pool_hit_rate", Ratio(fetches - misses, fetches), "ratio"},
        {"storage.pool_evictions_per_stmt",
         Ratio(static_cast<double>(a.pool.evictions - b.pool.evictions),
               stmts), "count"},
        {"api.update_execute_us",
         Ratio(wl.update_execute_us, static_cast<double>(wl.updates)), "us"},
        {"luc.mutations_per_commit",
         Ratio(static_cast<double>(wa.luc_mutations - wb.luc_mutations),
               commits), "count"},
        {"storage.wal_pages_per_commit", Ratio(wal_pages, commits), "count"},
        {"storage.wal_meta_bytes_per_commit",
         wn.wal_bytes_per_commit -
             Ratio(wal_pages, commits) * static_cast<double>(kWalPageFrameBytes),
         "B"},
        {"storage.pool_dirty_writebacks_per_commit",
         Ratio(static_cast<double>(wa.pool.dirty_writebacks -
                                   wb.pool.dirty_writebacks), commits),
         "count"},
        {"storage.wal_checkpoints_per_kcommit",
         Ratio(1000.0 * ckpts, commits), "1/kcommit"},
        {"storage.group_commit_batch_size",
         Ratio(commits, commit_records), "commits"},
        {"storage.lock_waits_per_read",
         Ratio(static_cast<double>(a.lock_waits - b.lock_waits), reads),
         "count"},
        {"storage.lock_acquisitions_per_stmt",
         Ratio(static_cast<double>(a.lock_acquisitions - b.lock_acquisitions),
               stmts), "count"},
        {"luc.load_us_per_entity",
         Ratio(s.load_s * 1e6, static_cast<double>(pop.entities())), "us"},
        {"check.audit_entities_per_s",
         Ratio(static_cast<double>(pop.entities()), chk.seconds), "1/s"},
        {"check.audit_findings", static_cast<double>(chk.findings), "count"},
        {"obs.trace_overhead_pct",
         100.0 * Ratio(plain_ops - traced_ops, plain_ops), "%"},
        {"obs.span_coverage_pct",
         100.0 * Ratio(rl.statement_us, ReadBusyUs(ph)), "%"},
        {"obs.span_nesting_violations",
         static_cast<double>(rl.nesting_violations + wl.nesting_violations),
         "count"},
    };
    if (lost) {
      correct = false;
      std::printf("trace ring wrapped: spans were lost\n");
    }
    if (rl.nesting_violations + wl.nesting_violations != 0) {
      correct = false;
      std::printf("child spans exceed their statement span\n");
    }
    std::printf("samples: %llu traced reads, %llu traced updates; audit "
                "findings %llu%s%s\n",
                static_cast<unsigned long long>(rl.reads),
                static_cast<unsigned long long>(wl.updates),
                static_cast<unsigned long long>(chk.findings),
                chk.findings ? ", first: " : "", chk.first.c_str());
  }

  if (tally.failed != 0) {
    correct = false;
    std::printf("first failure: %s\n", tally.first_error.c_str());
  }
  std::printf("failed_frac %.6f (%llu of %llu statements, %llu of them "
              "wrong results)\n",
              Ratio(static_cast<double>(tally.failed),
                    static_cast<double>(tally.attempted)),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.mismatched));
  PrintTable(args.trace ? "per-layer (traced run)" : "end-to-end (untraced run)",
             metrics);
  if (!report.empty()) PrintTable("also measured, not gated", report);
  std::fflush(stdout);
  Emit(correct, tally, metrics);
  return 0;
}
