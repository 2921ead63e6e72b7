package postag

import "strings"

// Ambig records which open word classes a lexicon entry can belong to.
type Ambig uint8

const (
	CanNoun Ambig = 1 << iota
	CanVerb
	CanAdj
	CanAdv
)

// closedClass maps closed-class words to their (almost always unambiguous)
// tag. Checked before anything else.
var closedClass = map[string]Tag{
	// determiners
	"the": DT, "a": DT, "an": DT, "this": DT, "that": DT, "these": DT,
	"those": DT, "each": DT, "every": DT, "some": DT, "any": DT, "no": DT,
	"all": DT, "both": DT, "another": DT, "such": DT, "either": DT,
	"neither": DT,
	// pronouns
	"it": PRP, "they": PRP, "we": PRP, "you": PRP, "he": PRP, "she": PRP,
	"i": PRP, "them": PRP, "us": PRP, "him": PRP, "her": PRP, "one": PRP,
	"itself": PRP, "themselves": PRP, "yourself": PRP,
	"its": PRPS, "their": PRPS, "your": PRPS, "our": PRPS, "his": PRPS,
	"my": PRPS,
	// coordinating conjunctions
	"and": CC, "or": CC, "but": CC, "nor": CC, "yet": CC, "plus": CC,
	// modals
	"can": MD, "could": MD, "may": MD, "might": MD, "must": MD,
	"shall": MD, "should": MD, "will": MD, "would": MD, "cannot": MD,
	"ca": MD, // tokenized "can't" -> "ca" "n't"
	// prepositions & subordinators
	"of": IN, "in": IN, "on": IN, "at": IN, "by": IN, "for": IN,
	"with": IN, "from": IN, "into": IN, "onto": IN, "upon": IN,
	"about": IN, "between": IN, "among": IN, "through": IN, "during": IN,
	"before": IN, "after": IN, "above": IN, "below": IN, "under": IN,
	"over": IN, "within": IN, "without": IN, "across": IN, "against": IN,
	"along": IN, "around": IN, "behind": IN, "beside": IN, "besides": IN,
	"beyond": IN, "despite": IN, "except": IN, "inside": IN, "outside": IN,
	"per": IN, "since": IN, "than": IN, "toward": IN, "towards": IN,
	"unlike": IN, "until": IN, "via": IN, "versus": IN, "if": IN,
	"because": IN, "although": IN, "though": IN, "unless": IN, "while": IN,
	"whereas": IN, "whether": IN, "so": IN, "as": IN, "like": IN,
	"worth": IN, "amid": IN, "throughout": IN,
	// wh-words
	"which": WDT, "whatever": WDT,
	"who": WP, "whom": WP, "whose": WP, "what": WP,
	"when": WRB, "where": WRB, "why": WRB, "how": WRB, "whenever": WRB,
	"wherever": WRB,
	// other closed items
	"there": EX,
	"not":   RB, "n't": RB,
	"'s": POS,
	"oh": UH, "yes": UH,
}

// numberWords are spelled-out numerals, tagged CD.
var numberWords = map[string]bool{
	"zero": true, "one": false, // "one" stays PRP (closed class)
	"two": true, "three": true, "four": true, "five": true, "six": true,
	"seven": true, "eight": true, "nine": true, "ten": true, "eleven": true,
	"twelve": true, "sixteen": true, "twenty": true, "thirty": true,
	"thirty-two": true, "sixty-four": true, "hundred": true,
	"thousand": true, "million": true, "billion": true,
}

// commonAdverbs are frequent -ly-less adverbs (plus degree words).
var commonAdverbs = map[string]bool{
	"very": true, "too": true, "also": true, "then": true, "thus": true,
	"hence": true, "therefore": true, "however": true, "often": true,
	"always": true, "never": true, "sometimes": true, "usually": true,
	"frequently": true, "rarely": true, "instead": true, "rather": true,
	"even": true, "only": true, "just": true, "still": true, "already": true,
	"again": true, "once": true, "twice": true, "here": true, "now": true,
	"soon": true, "later": true, "first": true, "together": true,
	"well": true, "much": true, "more": true, "most": true, "less": true,
	"least": true, "further": true, "otherwise": true, "moreover": true,
	"furthermore": true, "consequently": true, "accordingly": true,
	"alternatively": true, "additionally": true, "meanwhile": true,
	"nevertheless": true, "nonetheless": true, "especially": true,
	"particularly": true, "specifically": true, "generally": true,
	"typically": true, "currently": true, "directly": true, "early": true,
	"fast": true, "far": true, "long": true, "ahead": true,
}

// beForms / haveForms / doForms drive auxiliary detection downstream.
var beForms = map[string]Tag{
	"be": VB, "is": VBZ, "are": VBP, "am": VBP, "was": VBD, "were": VBD,
	"been": VBN, "being": VBG,
}

var haveForms = map[string]Tag{
	"have": VBP, "has": VBZ, "had": VBD, "having": VBG,
}

var doForms = map[string]Tag{
	"do": VBP, "does": VBZ, "did": VBD, "doing": VBG, "done": VBN,
}

// openLexiconRaw lists open-class words with their possible classes:
// n = noun, v = verb, j = adjective, r = adverb. Words may carry several.
// The register is that of GPU/accelerator programming guides.
const openLexiconRaw = `
access:nv accomplish:v account:nv achieve:v act:nv add:v address:nv adjust:v adopt:v
absorb:v advance:nv advantage:n advice:n advise:v affect:v aggregate:nvj algorithm:n
alias:nv align:v alignment:n allocate:v allocation:n allow:v alternative:nj
amount:nv analysis:n analyze:v answer:nv application:n apply:v approach:nv
appropriate:j architecture:n argue:v argument:n arithmetic:nj arrange:v
array:nv arrive:v aspect:n assembly:n assign:v associate:v assume:v
atomic:j attach:v attain:v attempt:nv attribute:nv avoid:v await:v
bad:j balance:nv band:n bandwidth:n bank:nv barrier:n base:nvj basic:j
batch:nv become:v begin:v behavior:n benchmark:nv beneficial:j benefit:nv
best:jr better:jr big:j bind:v bit:n block:nv board:n body:n boost:nv
bottleneck:n bound:nv boundary:n branch:nv break:nv bridge:nv brief:j
bring:v buffer:nv build:v bus:n byte:n cache:nv calculate:v call:nv
capability:n capacity:n capture:nv care:nv careful:j carry:v case:n cast:nv
cause:nv cell:n chain:nv chance:n change:nv channel:n chapter:n check:nv
chip:n choice:n choose:v chunk:n circumvent:v cite:v claim:nv class:n
clause:n clean:vj clear:vj clock:n close:vj cluster:nv coalesce:v code:nv
collect:v collection:n combine:v command:nv comment:nv common:j
communicate:v compare:v comparison:n compile:v compiler:n complete:vj
complex:j complexity:n component:n compose:v compute:nv computation:n
concept:n concurrent:j condition:nv conditional:j configure:v
configuration:n conflict:nv connect:v consider:v consist:v constant:nj
constraint:n construct:nv consume:v contain:v content:n context:n
contiguous:j continue:v contribute:v control:nv convert:v cooperate:v
coordinate:nv copy:nv core:n correct:vj correspond:v cost:nv count:nv
counter:n couple:nv course:n cover:nv create:v critical:j cross:v
crucial:j current:nj cycle:nv data:n deal:nv debug:v decide:v decision:n
declare:v decompose:v decrease:nv dedicate:v default:nv defer:v define:v
degree:n delay:nv delete:v demand:nv demonstrate:v denote:v depend:v
dependence:n dependency:n depth:n describe:v design:nv desirable:j
detail:nv detect:v determine:v develop:v developer:n device:n devote:v
differ:v difference:n different:j difficult:j dimension:n direct:vj
direction:n directive:n disable:v discard:v discuss:v dispatch:nv
distinct:j distribute:v diverge:v divergence:n divergent:j divide:v
document:nv domain:n dominate:v double:vj download:nv drive:nv driver:n
drain:nv drop:nv dual:j due:j dump:nv duplicate:nv duration:n dynamic:j each:j
ease:nv easy:j edge:n effect:nv effective:j efficiency:n efficient:j
effort:n element:n eliminate:v embed:v emit:v employ:v empty:vj emulate:v
enable:v encounter:v encourage:v end:nv engine:n enhance:v enqueue:v
ensure:v enter:v entire:j entry:n environment:n equal:vj equation:n
equip:v error:n essential:j establish:v estimate:nv evaluate:v even:jr
event:n evict:v evolve:v examine:v example:n exceed:v excess:nj
exchange:nv exclusive:j execute:v execution:n exercise:nv exhibit:nv
exist:v expand:v expect:v expense:n expensive:j experience:nv experiment:nv
expert:n explain:v explicit:j exploit:nv explore:v export:nv expose:v
express:vj extend:v extension:n extent:n external:j extra:j extract:nv
fact:n factor:nv fail:v failure:n fall:nv false:j fast:jr fault:n
feature:nv feed:nv fetch:nv few:j field:n figure:nv file:nv fill:v
filter:nv final:j find:v fine:j finish:nv fit:nv fix:nv flag:nv flexible:j
float:nv flow:nv flush:nv focus:nv fold:nv follow:v footprint:n force:nv
form:nv format:nv formula:n forward:vj fraction:n fragment:nv frame:nv
framework:n free:vj frequency:n frequent:j full:j fully:r function:nv
furthermore:r fuse:v fusion:n gain:nv gap:n gather:v general:j generate:v
generation:n gigabyte:n give:v global:j good:j grain:n granularity:n
graph:n graphic:nj great:j grid:n group:nv grow:v guarantee:nv guard:nv
guide:nv guideline:n half:nj halt:nv handle:nv happen:v hard:jr
hardware:n harness:nv hash:nv hazard:n head:nv heavy:j help:nv hide:v
hierarchy:n high:jr hint:nv hit:nv hold:v host:nv hurt:v hybrid:nj idea:n
ideal:j identical:j identify:v idle:vj ignore:v illustrate:v image:n
imbalance:n impact:nv imperative:nj implement:v implementation:n
implication:n implicit:j imply:v import:nv important:j improve:v
improvement:n include:v incorporate:v increase:nv increment:nv incur:v
independent:j index:nv indicate:v indirect:j individual:nj inefficient:j
infer:v influence:nv inform:v information:n inherent:j initial:j
initialize:v inline:vj inner:j input:nv insert:v inspect:v install:v
instance:n instead:r instruction:n instrument:nv integer:n integrate:v
intend:v intense:j intensity:n intensive:j interact:v interest:nv
interface:nv interleave:v intermediate:j internal:j interpret:v
interrupt:nv intrinsic:nj introduce:v invalidate:v invoke:v involve:v
issue:nv item:n iterate:v iteration:n join:nv keep:v kernel:n key:nj
keyword:n kind:n know:v label:nv lane:n language:n large:j last:vj
latency:n launch:nv layer:n layout:n lead:nv leak:nv learn:v leave:v
less:jr level:n leverage:nv library:n lie:v lifetime:n light:nj like:v
likely:jr limit:nv limiter:n line:nv linear:j link:nv list:nv little:j
live:vj load:nv local:j locality:n locate:v location:n lock:nv logic:n lose:v
logical:j long:jr look:nv loop:nv low:jr lower:vj machine:n main:j
maintain:v major:j make:v manage:v management:n manner:n manual:nj many:j
map:nv mask:nv master:nv match:nv matrix:n matter:nv maximal:j maximize:v
maximum:nj measure:nv mechanism:n media:n memory:n mention:v merge:nv
mesh:n message:n method:n metric:n migrate:v minimal:j minimize:v
minimum:nj minor:j miss:nv mitigate:v mix:nv mode:n model:nv modern:j
modify:v module:n moment:n monitor:nv move:nv multiple:nj multiply:v
multiprocessor:n name:nv narrow:vj native:j nature:n near:j necessary:j
need:nv negative:j nest:nv network:nv new:j next:j node:n normal:j
normalize:v notable:j note:nv notice:nv number:nv object:nv observe:v
obtain:v occupancy:n occupy:v occur:v offer:nv offload:nv offset:nv
often:r old:j operand:n operate:v operation:n opportunity:n optimal:j
optimization:n optimize:v option:n optional:j order:nv organize:v
orient:v origin:n original:j other:j outer:j outline:nv output:nv
outstanding:j overall:j overcome:v overhead:n overlap:nv overload:nv
override:nv own:vj pack:nv package:nv pad:nv padding:n page:nv pair:nv
parallel:nj parallelism:n parameter:n parameterize:v part:nv partial:j
particular:j partition:nv pass:nv passive:j patch:nv path:n pattern:nv peak:nj
penalty:n pend:v per:j percent:n perform:v performance:n period:n
permit:v phase:nv pick:nv piece:nv pin:nv pinpoint:v pipeline:nv pitch:nv
place:nv plan:nv platform:n point:nv pointer:n policy:n pool:nv poor:j
popular:j populate:v port:nv portion:n position:nv possess:v possible:j
post:nv potential:nj power:nv practice:nv pragma:n precede:v precision:n
predicate:nv predict:v prefer:v prefetch:nv prepare:v presence:n
present:vj preserve:v pressure:nv prevent:v previous:j primary:j
principle:n print:nv prior:j privatize:v priority:n private:j problem:n procedure:n
proceed:v process:nv processor:n produce:v product:n profile:nv
profiler:n program:nv programmer:n progress:nv project:nv promote:v
prompt:vj proper:j property:n propose:v protect:v prove:v provide:v
purpose:n push:nv put:v quantity:n query:nv question:nv queue:nv quick:j
range:nv rank:nv rate:nv rather:r ratio:n raw:j reach:nv read:nv ready:j rebuild:v
real:j realize:v rearrange:v reason:nv receive:v recent:j recognize:v
recommend:v recompute:v recompute:v record:nv recover:v recycle:v rectify:v reduce:v reorganize:v
reduction:n redundant:j refactor:v refer:v reference:nv refine:v
region:n register:nv regular:j relate:v relation:n relative:j release:nv
relevant:j reliable:j rely:v remain:v remark:nv remember:v remind:v
remove:v render:v reorder:v repeat:v replace:v replicate:v report:nv
represent:v request:nv require:v requirement:n research:nv reserve:nv
reside:v resident:nj resolve:v resource:n respect:nv respond:v response:n
rest:nv restrict:v restructure:v result:nv resume:v retain:v rethink:v retire:v
retrieve:v return:nv reuse:nv reveal:v review:nv revise:v revolve:v
rewrite:v right:j root:nv round:nv routine:n row:n rule:nv run:nv
runtime:n same:j sample:nv satisfy:v save:nv scale:nv scan:nv scatter:v
schedule:nv scheduler:n scheme:n scope:nv second:nj section:n see:v
seek:v segment:nv select:v selection:n selector:n semantic:j send:v
sense:nv separate:vj sequence:nv sequential:j serial:j serialize:v
serve:v server:n service:nv set:nv setting:n setup:n several:j shape:nv
share:nv shift:nv short:j show:nv side:n sign:nv signal:nv significant:j
similar:j simple:j simplify:v simulate:v simultaneous:j single:j site:n
situation:n size:nv skip:nv slow:vj small:j smooth:vj software:n
solution:n solve:v sort:nv source:nv space:nv span:nv spawn:v special:j
specific:j specification:n specify:v speed:nv spend:v spill:nv split:nv
spot:nv spread:nv stack:nv stage:nv stall:nv standard:nj start:nv state:nv
statement:n static:j statistic:n stay:v stem:nv step:nv storage:n
store:nv strategy:n stream:nv strength:n stress:nv stride:nv string:n
strip:nv strong:j structure:nv student:n study:nv style:n subdivide:v
subject:nv submit:v subsection:n subsequent:j subset:n substantial:j
substitute:nv suffer:v sufficient:j suggest:v suit:nv suitable:j sum:nv
summarize:v summary:n supply:nv support:nv suppose:v surface:nv survey:nv
suspend:v sustain:v swap:nv switch:nv synchronize:v synchronization:n
synthesize:v system:n table:n tag:nv tail:n take:v talk:nv target:nv
task:n technique:n technology:n tell:v temporary:j tend:v term:nv test:nv
texture:nv thrash:v thread:nv threshold:n throughput:n throw:v tie:nv
tile:nv time:nv tip:nv together:r token:n tolerate:v tool:n top:nj
topic:n total:nj trace:nv track:nv trade:nv tradeoff:n traffic:n
transaction:n transfer:nv transform:nv transition:nv translate:v
transpose:nv traverse:v treat:v trigger:nv trip:nv true:j try:nv tune:nv
tuning:n turn:nv twice:r type:nv typical:j uniform:j unit:n unite:v
unroll:v update:nv upload:nv upper:j usage:n use:nv useful:j user:n
utilize:v utilization:n validate:v value:nv variable:nj variant:n
variation:n vary:v vector:nv vendor:n verify:v version:n view:nv
virtual:j visible:j visit:nv volume:n wait:nv want:v warp:nv waste:nv
watch:nv wave:n way:n weak:j weight:nv wide:j width:n window:n wise:j
word:n work:nv workload:n wrap:nv write:nv yield:nv zero:nvj zone:n
`

var openLexicon = buildOpenLexicon(openLexiconRaw)

func buildOpenLexicon(raw string) map[string]Ambig {
	m := make(map[string]Ambig, 1500)
	for _, entry := range strings.Fields(raw) {
		colon := strings.IndexByte(entry, ':')
		if colon < 0 {
			continue
		}
		word := entry[:colon]
		var a Ambig
		for _, c := range entry[colon+1:] {
			switch c {
			case 'n':
				a |= CanNoun
			case 'v':
				a |= CanVerb
			case 'j':
				a |= CanAdj
			case 'r':
				a |= CanAdv
			}
		}
		m[word] = a
	}
	return m
}
